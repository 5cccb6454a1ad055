#!/usr/bin/env bash
# Every advertised guarantee as CLI invocations, one block per criterion.
# Exits non-zero on the first failing certificate.
set -euo pipefail

# ZILBER, if set, is the command to run; otherwise the installed zilber, or
# in a bare checkout the CLI module from the src next to this script.
if [ -z "${ZILBER:-}" ]; then
  if command -v zilber > /dev/null; then
    ZILBER=zilber
  else
    src="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/src"
    export PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
    ZILBER="python3 -m zilber.cli"
  fi
fi

echo "== 1: simplicial-identity fuzz =="
$ZILBER doldkan --fuzz 500 --seed 10001 --dim-bound 3

echo "== 2: normalization round-trips and the two-term hom table =="
$ZILBER doldkan --random-complexes 100 --random-objects 50 --hom-table 5 \
    --seed 10002 --dim-bound 3

echo "== 3: shuffle-product certification =="
for a in delta0 delta1 delta2 s1; do
  for b in delta0 delta1 delta2 s1; do
    $ZILBER ez "$a" "$b" --check chain --check aw --check unital \
        --check symmetry --dim-bound 3
  done
done
for t in "delta1 delta1 delta1" "delta1 s1 delta1" "s1 s1 delta0" \
         "delta2 delta1 s1" "delta2 delta2 delta0"; do
  set -- $t
  $ZILBER ez "$1" "$2" --third "$3" --check assoc --dim-bound 2
done

echo "== 4: torus homology both ways =="
$ZILBER ez s1 s1 --check kunneth --dim-bound 2

echo "== 5: skeleton products =="
for a in 0 1 2 3; do
  for b in 0 1 2 3; do
    for n in $(seq $((a + b)) 6); do
      d=$n; [ "$d" -lt 1 ] && d=1
      $ZILBER skeleta "delta$a" "delta$b" --p "$a" --q "$b" --n "$n" \
          --dim-bound "$d" > /dev/null
    done
  done
done
# negative witness below the product dimension: expected exit 1
if $ZILBER skeleta delta2 delta2 --p 2 --q 2 --n 3 --dim-bound 4; then
  echo "expected a failing certificate" >&2
  exit 1
fi

echo "== 6: filtered shuffle pairing =="
for a in delta0 delta1 delta2 s1; do
  for b in delta0 delta1 delta2 s1; do
    $ZILBER skeleta "$a" "$b" --filtered-ez --dim-bound 3 > /dev/null
  done
done

echo "== 7: first page is the normalized chains =="
for x in delta1 delta2 s1 torus; do
  $ZILBER ss "sk:$x" --heart
done

echo "== 8: page invariants and the Leibniz rule =="
$ZILBER ss random --trials 50 --p-max 4 --seed 10008 > /dev/null
$ZILBER ss ez:delta1,s1 --pairing --dim-bound 2

echo "== 9: promonoidal suite =="
$ZILBER promonoidal --check unit --check mu-assoc --b 2 > /dev/null
$ZILBER promonoidal --check product-colimit --ns 1,1 --k-max 5
$ZILBER promonoidal --check product-colimit --ns 2,1 --k-max 5
$ZILBER promonoidal --check product-colimit --ns 2,2 --k-max 5
for b in 2 3 4; do
  $ZILBER promonoidal --check left-kan --ns 1,1 --b "$b" --m 4 > /dev/null
done
if $ZILBER promonoidal --check left-kan --ns 1,1 --b 1 --m 2; then
  echo "expected a failing certificate" >&2
  exit 1
fi

echo "== 10: convolution unit, symmetry, associativity =="
$ZILBER skeleta --day-unit --trials 20 --seed 10010
$ZILBER skeleta --day-symmetry --day-assoc --trials 3 --seed 10010

echo "all criteria passed"
