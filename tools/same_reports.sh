#!/usr/bin/env bash
# Compares the reports of two envchain trees; a change may make a report
# faster, never different.
#
#     tools/same_reports.sh PARENT_TREE HEAD_TREE [OUT_DIR]
#
# Runs the verify reports (built-in catalog, also at --kmax 8, where lemma
# runs are reused at depths the benchmark never reaches; the bench catalog;
# tests/data; A6, whose 491 subgroups fall in 21 conjugacy classes; P256,
# tests/data's P128 times <(8 9)>, whose 1,561 subgroups fall in 389 classes;
# S7's Bryant suite at --kmax 1, the one report of a group above the 1,024 of
# grp._TABLE_LIMIT, where closures and filters take the untabled paths; P1024's
# (P128's generators and D8 on points 8-11, degree 12) at --kmax 1, a group of
# order exactly grp._TABLE_LIMIT, the largest that stores product rows; and
# the built-in catalog at --cap 5 and at --kmax 64, which exit 3 with no
# report, one on the closure cap and one on cli.MAX_CHECKS),
# five counterexample reports (--levels 8, the same with the level-4
# enumeration oracle, --levels 12 scanning to 18, --levels 13, whose model
# outgrows its budget and ends in the partial report with exit 3, and the
# smallest model, --levels 2 --scan-max 1) and eighteen ekchain runs
# (--kmax 4 in S6 on the benchmark's cyclic, order-16 and S3 subgroups, and
# on a subgroup file of no generators and one of the single generator ();
# S3 on 7 points in S7 at --kmax 2, above grp._TABLE_LIMIT; the default
# window in S6 for S3, the log window at kmax 20, and for the order-16
# subgroup, its class 2; --kmax 0 and 65, which exit 2 with no report;
# S6 at --cap 100, which exits 3 with no report from the group-file loader;
# three that exit 2 with an error naming a permutation in cycle notation:
# the subgroup generator (0 1 2) outside <(0 1)>; the subgroup file (0 1),
# (1 2), (0 1 2) in <(0 1)>, whose error names (1 2), the first generator
# outside the group, the generators being looked up in file order; and a
# group file whose line (0 1)(1 2) repeats a point; and three group files
# of degree 10,000, each as both group and subgroup: 200 () lines, whose
# repeated lines are read once; the 10,000 one-point cycles (0) ... (9999), all the identity,
# exit 0; and the 9,999 transpositions (0 1) ... (0 9999), which exit 3 on
# the closure's storage bound; and the transpositions as the subgroup file
# of the one-point cycles' group, which exits 2 on its first generator, a
# subgroup file being only looked up in the group), all json-like, and the text reports of the
# built-in, bench-catalog and tests/data verify, of each bench-catalog suite
# on its own (a conjugacy class's records are reused per suite run), of A6
# and P256 at --kmax 4 (P256's summary line counts 35,903 blocks, the most
# of any report here), of ekchain on S6's order-16 subgroup at --kmax 4 and
# of counterexample --levels 8, so each subcommand's text report is
# compared.  Each tree runs
# its own src on HEAD_TREE's input files: the benchmark's groups under
# perfbench/groups, the probe groups under tests/data/reach (A6, P256,
# P1024, S7 and the small ekchain files), and the two large degree-10,000
# files, which are written to OUT_DIR/groups.  total_s is zeroed and the
# text `time:` line, the one timing field, dropped; a nonzero exit is
# appended as "exit N", and each run's stderr is kept beside its report as
# NAME.stderr.  The reports and their stderr go to OUT_DIR/parent and
# OUT_DIR/head (OUT_DIR defaults to a new temporary directory), and the
# script exits nonzero on any byte difference in either.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 PARENT_TREE HEAD_TREE [OUT_DIR]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=${3:-$(mktemp -d)}
mkdir -p "$out/groups"
out=$(cd "$out" && pwd)
{ echo 'degree: 10000'; for i in $(seq 0 9999); do echo "($i)"; done; } > "$out/groups/moves-10000.grp"
{ echo 'degree: 10000'; for i in $(seq 1 9999); do echo "(0 $i)"; done; } > "$out/groups/transpositions-10000.grp"
reach=$head/tests/data/reach
ek=$reach/ek
verify=$head/perfbench/groups/verify
s6=$head/perfbench/groups/s6

for side in parent head; do
  tree=$parent
  [ "$side" = head ] && tree=$head
  rm -rf "${out:?}/$side"
  mkdir -p "$out/$side"
  while read -r name format args; do
    (cd "$tree" && PYTHONPATH=src python3 -m envchain.cli $args --format $format \
      2> "$out/$side/$name.stderr" || echo "exit $?") \
      | sed -E -e 's/"total_s": [0-9.e+-]+/"total_s": 0/' -e '/^time: /d' \
      > "$out/$side/$name"
  done <<LIST
builtin json-like verify
builtin-text text verify
builtin-k8 json-like verify --kmax 8
bench json-like verify --catalog-dir $verify
bench-text text verify --catalog-dir $verify
bench-bryant text verify --catalog-dir $verify --suite bryant --kmax 3
bench-structure text verify --catalog-dir $verify --suite structure --kmax 5
bench-nilpotent text verify --catalog-dir $verify --suite nilpotent
data json-like verify --catalog-dir $head/tests/data
data-text text verify --catalog-dir $head/tests/data
a6 json-like verify --catalog-dir $reach/a6
a6-text text verify --kmax 4 --catalog-dir $reach/a6
p256 json-like verify --kmax 4 --catalog-dir $reach/p256
p256-text text verify --kmax 4 --catalog-dir $reach/p256
s7-bryant json-like verify --suite bryant --kmax 1 --catalog-dir $reach/s7
p1024-bryant json-like verify --suite bryant --kmax 1 --catalog-dir $reach/p1024
model json-like counterexample --levels 8
model-oracle4 json-like counterexample --levels 8 --oracle-depth 4
model-scan18 json-like counterexample --levels 12 --scan-max 18
model-budget json-like counterexample --levels 13
model-smallest json-like counterexample --levels 2 --scan-max 1
model-text text counterexample --levels 8
ek-cyclic json-like ekchain $s6/S6.grp $s6/cyclic.grp --kmax 4
ek-p16 json-like ekchain $s6/S6.grp $s6/p16.grp --kmax 4
ek-p16-text text ekchain $s6/S6.grp $s6/p16.grp --kmax 4
ek-s3 json-like ekchain $s6/S6.grp $s6/s3.grp --kmax 4
ek-none json-like ekchain $s6/S6.grp $ek/none6.grp --kmax 4
ek-identity json-like ekchain $s6/S6.grp $ek/identity6.grp --kmax 4
ek-s7-s3 json-like ekchain $reach/s7/S7.grp $ek/s3-7.grp --kmax 2
ek-s3-default json-like ekchain $s6/S6.grp $s6/s3.grp
ek-p16-default json-like ekchain $s6/S6.grp $s6/p16.grp
ek-kmax0 json-like ekchain $s6/S6.grp $s6/p16.grp --kmax 0
ek-kmax65 json-like ekchain $s6/S6.grp $s6/p16.grp --kmax 65
verify-cap5 json-like verify --cap 5
verify-kmax64 json-like verify --kmax 64
ek-cap100 json-like ekchain $s6/S6.grp $s6/p16.grp --cap 100
ek-outside json-like ekchain $ek/c2-3.grp $ek/c3-3.grp
ek-outside-second json-like ekchain $ek/c2-3.grp $ek/c2-then-outside-3.grp
ek-malformed json-like ekchain $ek/malformed-3.grp $ek/c3-3.grp
ek-repeated json-like ekchain $ek/repeated-10000.grp $ek/repeated-10000.grp
ek-moves json-like ekchain $out/groups/moves-10000.grp $out/groups/moves-10000.grp
ek-transpositions json-like ekchain $out/groups/transpositions-10000.grp $out/groups/transpositions-10000.grp
ek-moves-transpositions json-like ekchain $out/groups/moves-10000.grp $out/groups/transpositions-10000.grp
LIST
done
diff -r "$out/parent" "$out/head"
echo "same reports: $(ls "$out/head" | grep -vc '\.stderr$') reports and their stderr in $out"
