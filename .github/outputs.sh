#!/bin/sh
# Writes into DIR every file that .github/outputs.sha256 pins, running this
# checkout's package with no install; the first failed check stops it with
# that command's exit status.  Usage: sh .github/outputs.sh DIR
set -eu
if [ $# -ne 1 ] || [ -z "$1" ]; then
  echo "usage: sh .github/outputs.sh DIR" >&2
  exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"
explorelab() {
  PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m explorelab.cli "$@"
}
explorelab experiment --variant fuel --csv "$out/fuel.csv"
explorelab gen --family 10,16,6 --out "$out/member.json"
explorelab validate --family 10,16,6 "$out/member.json"
explorelab run --instance "$out/member.json" --alpha 0.5 --monitors distance,completion --family 10,16,6
# seed 0 sorts every port row; seeds 1 and 2 are held-out port orders
explorelab experiment --variant distance --csv "$out/distance.csv"
explorelab experiment --variant distance --seed 1 --csv "$out/distance-s1.csv"
explorelab experiment --variant distance --seed 2 --csv "$out/distance-s2.csv"
# the distance rows against a second explorer
explorelab experiment --variant distance --policy fuel-cautious --k 2,3,4 --csv "$out/fuel-cautious.csv"
explorelab experiment --variant fuel --k 4,5,6,8 --csv "$out/fuel-scale.csv"
# alpha = 1/2, r = 2: the counting floor needs the bridge node's edges here
explorelab experiment --variant fuel --alpha 1/2 --r 2 --k 1,2,3,4 --csv "$out/fuel-half.csv"
explorelab adversary --r 6 --alpha 0.5 --k 5 --out "$out/k5.json" --audit "$out/k5-audit.json"
explorelab adversary --r 6 --alpha 0.5 --k 5 --seed 1 --out "$out/k5-s1.json" --audit "$out/k5-s1-audit.json"
# cautious-bfs crosses layers 7 and 8 before its first gadget visit, so the
# report's layer traversal counts and penalty are not zero
explorelab run --instance "$out/k5.json" --alpha 0.5 --monitors distance,completion --family 10,80,6 --report "$out/k5-run.json"
explorelab validate --family 10,80,6 "$out/k5.json"
explorelab validate --family 10,80,6 "$out/k5-s1.json"
# k is read off the width; each merge replays the policy on both graphs
explorelab merge --in "$out/k5.json" --alpha 0.5 --out "$out/k5-merged.json" --plan "$out/k5-plan.json" --check-behavior
explorelab merge --in "$out/k5-s1.json" --alpha 0.5 --out "$out/k5-s1-merged.json" --check-behavior
explorelab adversary --r 6 --alpha 0.5 --k 6 --out "$out/k6.json"
explorelab merge --in "$out/k6.json" --alpha 0.5 --out "$out/k6-merged.json" --check-behavior
