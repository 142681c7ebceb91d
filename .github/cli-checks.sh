#!/usr/bin/env bash
# End-to-end checks of the command line, run by every CI job:
#   bash .github/cli-checks.sh
# Each check prints its name; the script stops at the first that fails.
set -euo pipefail

check() {
  echo "== $*"
}

check "Count, n=7"
python -m cyclejoin count --factors 11,111,11111

check "Count at psi=236 through the blocks of Φ"
python -m cyclejoin count --factors 11,1011110010111 | grep "^zeta_G    : 1511175496145308605557648757787611722721695342358688" > /dev/null

check "Count at n=20, psi=280, as a guard on the graph build"
typed=$(timeout 60 python -m cyclejoin count --factors 111,1011,10011,100101,1000011)
echo "$typed"

check "Count at psi=280 with the factors reversed: the same zeta_G and zeta_Ghat"
out=$(timeout 60 python -m cyclejoin count --factors 1000011,100101,10011,1011,111)
test "$(echo "$out" | grep "^zeta_")" = "$(echo "$typed" | grep "^zeta_")"
test "$(echo "$out" | grep -c "^zeta_")" -eq 2

check "Count at psi=316, one factor, through the blocks of Φ (36 rows at most of 315)"
out=$(timeout 60 python -m cyclejoin count --factors 1111111111111)
echo "$out" | grep "^zeta_G    : 21509147219096910535441545120003745484236349920757" > /dev/null
echo "$out" | grep "^zeta_Ghat : 14381554284238068530246263007555171739514176861701" > /dev/null

check "Count at psi=1264 through the blocks of Φ (147 rows at most of 1263)"
out=$(timeout 60 python -m cyclejoin count --factors 11,111,1111111111111)
echo "$out" | grep "^zeta_G    : 42454981250656785331587672930167268741168640443425" > /dev/null
echo "$out" | grep "^zeta_Ghat : 19424161753025977292895116016308786621711123289185" > /dev/null

check "Count at psi=278, Φ of order 4, through a d = 4 block of 48 rows"
out=$(timeout 60 python -m cyclejoin count --factors 10011,1000011,100011101,111)
echo "$out" | grep "^zeta_G    : 19584998985980959727321788019204286713670782984789" > /dev/null
echo "$out" | grep "^zeta_Ghat : 16268067907294574084011938927733178499347566267559" > /dev/null

check "Generate piped into verify through stdin, n=16"
python -m cyclejoin generate --factors 1001001,10000001111 --limit 3 | python -m cyclejoin verify -

check "Sample piped into verify through stdin, n=16"
python -m cyclejoin sample --factors 1001001,10000001111 --limit 3 --seed 1 | python -m cyclejoin verify -

check "Verify reads both n-bit halves of each (n+1)-bit window, n=1 and n=2"
code=0
out=$(printf '01\n0011\n0001\n' | python -m cyclejoin verify -) || code=$?
echo "$out"
test "$code" -eq 1
test "$out" = "$(printf 'sequence 1: order 1: ok\nsequence 2: order 2: ok\nsequence 3: order 2: FAIL')"

check "Verify fails lines that int(..., 2) would parse but are not binary, n=2"
code=0
out=$(printf '0b01\n0_01\n+001\n' | python -m cyclejoin verify -) || code=$?
echo "$out"
test "$code" -eq 1
test "$(echo "$out" | grep -c ': order 2: FAIL$')" -eq 3

check "One flipped bit fails verify on its line only, n=16"
code=0
out=$(python -m cyclejoin generate --factors 1001001,10000001111 --limit 3 \
  | python -c "import sys; lines = sys.stdin.read().split(); b = lines[1]; lines[1] = b[:100] + '10'[int(b[100])] + b[101:]; print(*lines, sep='\n')" \
  | python -m cyclejoin verify -) || code=$?
echo "$out"
test "$code" -eq 1
test "$out" = "$(printf 'sequence 1: order 16: ok\nsequence 2: order 16: FAIL\nsequence 3: order 16: ok')"

check "JSON reports parse, n=16"
python -m cyclejoin generate --factors 1001001,10000001111 --format json --provenance --limit 2 | python -m json.tool > /dev/null
python -m cyclejoin sample --factors 1001001,10000001111 --format json --limit 2 | python -m json.tool > /dev/null
python -m cyclejoin count --factors 1001001,10000001111 --format json | python -m json.tool > /dev/null
python -m cyclejoin analyze --factors 1001001,10000001111 --format json | python -m json.tool > /dev/null

check "Generate at tree index 10^8 piped into verify, n=7"
timeout 60 python -m cyclejoin generate --factors 11,111,11111 --tree-index 100000000 --limit 1 | python -m cyclejoin verify -

check "Generate at psi=1264 piped into verify, n=15, as a guard on the tree search depth"
timeout 60 python -m cyclejoin generate --factors 11,111,1111111111111 --limit 2 | python -m cyclejoin verify -

check "Generate and sample 100 trees at psi=236 piped into verify, as a guard on the repeat-join path"
out=$(timeout 60 python -m cyclejoin generate --factors 11,1011110010111 --limit 100 | python -m cyclejoin verify -)
test "$(echo "$out" | grep -c ': ok$')" -eq 100
out=$(timeout 60 python -m cyclejoin sample --factors 11,1011110010111 --limit 100 --seed 1 | python -m cyclejoin verify -)
test "$(echo "$out" | grep -c ': ok$')" -eq 100

check "Greedy tree at n=20 piped into verify, as a guard on the greedy path"
timeout 60 python -m cyclejoin generate --partial --factors 1001001,100000000101011 | python -m cyclejoin verify -

check "Greedy tree at n=20 with a degree-18 factor of t=3 piped into verify, as a guard on the factor tables"
timeout 60 python -m cyclejoin generate --partial --factors 111,1000000000001110111 | python -m cyclejoin verify -

check "Sample and greedy tree at psi=280, n=20, piped into verify, as a guard on the cycle table built from five factors"
timeout 60 python -m cyclejoin sample --factors 111,1011,10011,100101,1000011 --limit 2 --seed 1 | python -m cyclejoin verify -
timeout 60 python -m cyclejoin generate --partial --factors 111,1011,10011,100101,1000011 | python -m cyclejoin verify -

check "A greedy tree over the total-degree cap exits 2 at once with nothing on stdout, n=31"
code=0
out=$(timeout 20 python -m cyclejoin generate --partial --factors 1000000000000011,10000000000101101) || code=$?
test "$code" -eq 2
test -z "$out"

check "A tree index past the last tree exits 2 at once, n=7"
code=0
timeout 20 python -m cyclejoin generate --factors 11,111,11111 --tree-index 12485394432 --limit 1 || code=$?
test "$code" -eq 2

echo "all CLI checks passed"
