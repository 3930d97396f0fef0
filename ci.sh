#!/bin/sh
# Minimal CI for the Yashme reproduction.
#
#   ./ci.sh          build, (optionally) check formatting, run the tests
#
# The formatting gate only runs when ocamlformat is installed: dune's
# @fmt alias shells out to it, so on images without ocamlformat the
# step is skipped rather than failing the whole pipeline.
set -eu

cd "$(dirname "$0")"

echo "== dune build"
dune build @all

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt (ocamlformat $(ocamlformat --version))"
  dune build @fmt
else
  echo "== skip formatting check (ocamlformat not installed)"
fi

echo "== dune runtest"
dune runtest

echo "== observability smoke (check --metrics --trace-out + trace-lint)"
trace=$(mktemp /tmp/yashme-ci-trace.XXXXXX.json)
trap 'rm -f "$trace"' EXIT
dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --metrics \
  --trace-out "$trace" --quiet >/dev/null
dune exec bin/yashme_cli.exe -- trace-lint "$trace"

echo "== fault-injection smoke (budgets + recovery-failure witnesses)"
# demo-diverge spins forever without a budget; under --max-ops the run
# must terminate cleanly (exit 0) and classify the spin as diverged.
out=$(dune exec bin/yashme_cli.exe -- check demo-diverge \
  --max-ops 400 --jobs 2 --quiet)
echo "$out" | grep -q "diverged" || {
  echo "ci: demo-diverge report lacks a diverged classification" >&2
  echo "$out" >&2
  exit 1
}
# demo-faulty-recovery's recovery raises on a real crash image; the
# batch must survive and report a recovery-failure finding.
out=$(dune exec bin/yashme_cli.exe -- check demo-faulty-recovery \
  --jobs 2 --quiet)
echo "$out" | grep -q "recovery-failure" || {
  echo "ci: demo-faulty-recovery report lacks a recovery-failure finding" >&2
  echo "$out" >&2
  exit 1
}

echo "== witness-corpus smoke (--corpus-out + replay + minimize + merge)"
corpus=$(mktemp /tmp/yashme-ci-corpus.XXXXXX.jsonl)
minimized=$(mktemp /tmp/yashme-ci-corpus-min.XXXXXX.jsonl)
merged=$(mktemp /tmp/yashme-ci-corpus-merged.XXXXXX.jsonl)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged"' EXIT
# A racy benchmark records witnesses; the corpus must replay clean
# (exit 0) in the very build that produced it.
dune exec bin/yashme_cli.exe -- check Btree --jobs 2 --quiet \
  --corpus-out "$corpus" >/dev/null
test -s "$corpus" || {
  echo "ci: check --corpus-out wrote no witnesses for Btree" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- replay "$corpus" --quiet
# Minimization must keep every witness reproducing and never grow a
# crash-plan index.
dune exec bin/yashme_cli.exe -- minimize "$corpus" -o "$minimized" --quiet \
  2>/dev/null >/dev/null
orig_max=$(grep -o '"plan":"crash_before_flush:[0-9]*"' "$corpus" \
  | grep -o '[0-9]*' | sort -n | tail -1)
min_max=$(grep -o '"plan":"crash_before_flush:[0-9]*"' "$minimized" \
  | grep -o '[0-9]*' | sort -n | tail -1)
[ "${min_max:-0}" -le "${orig_max:-0}" ] || {
  echo "ci: minimize grew a crash-plan index ($orig_max -> $min_max)" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- replay "$minimized" --quiet
# Merging a corpus with itself is the identity, byte for byte.
dune exec bin/yashme_cli.exe -- corpus merge "$corpus" "$corpus" \
  -o "$merged" >/dev/null
cmp "$corpus" "$merged" || {
  echo "ci: corpus merge of a file with itself is not byte-identical" >&2
  exit 1
}

echo "== telemetry smoke (--coverage --progress-out + coverage determinism)"
progress=$(mktemp /tmp/yashme-ci-progress.XXXXXX.jsonl)
cov1=$(mktemp /tmp/yashme-ci-cov1.XXXXXX.jsonl)
cov4=$(mktemp /tmp/yashme-ci-cov4.XXXXXX.jsonl)
bench_cur=$(mktemp /tmp/yashme-ci-bench-cur.XXXXXX.json)
bench_rerun=$(mktemp /tmp/yashme-ci-bench-rerun.XXXXXX.json)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged" "$progress" "$cov1" "$cov4" "$bench_cur" "$bench_rerun"' EXIT
dune exec bin/yashme_cli.exe -- check-all --jobs 1 --quiet \
  --coverage-out "$cov1" --progress-out "$progress" >/dev/null
# the progress stream is machine-readable JSONL and non-empty
test -s "$progress" || {
  echo "ci: --progress-out wrote nothing" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- trace-lint "$progress"
# coverage totals are byte-identical across --jobs counts
dune exec bin/yashme_cli.exe -- check-all --jobs 4 --quiet \
  --coverage-out "$cov4" >/dev/null
cmp "$cov1" "$cov4" || {
  echo "ci: coverage snapshot differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- trace-lint "$cov1"

echo "== whole-suite byte identity (check-all --jobs 1 vs --jobs 2 vs golden)"
# The full race report and the witness corpus must not depend on the
# job count, and the report must match the committed golden byte for
# byte: simulator and detector optimizations may not move a single
# output byte.  The corpus path is the only run-specific token in the
# report; it is normalized before comparing.
suite_dir=$(mktemp -d /tmp/yashme-ci-suite.XXXXXX)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged" "$progress" "$cov1" "$cov4" "$bench_cur" "$bench_rerun"; rm -rf "$suite_dir"' EXIT
for j in 1 2; do
  dune exec bin/yashme_cli.exe -- check-all --jobs $j \
    --corpus-out "$suite_dir/corpus$j.jsonl" \
    | sed "s#$suite_dir/corpus$j.jsonl#CORPUS#" > "$suite_dir/report$j.txt"
done
cmp "$suite_dir/report1.txt" "$suite_dir/report2.txt" || {
  echo "ci: check-all report differs between --jobs 1 and --jobs 2" >&2
  exit 1
}
cmp "$suite_dir/corpus1.jsonl" "$suite_dir/corpus2.jsonl" || {
  echo "ci: check-all corpus differs between --jobs 1 and --jobs 2" >&2
  exit 1
}
grep -v '^corpus: ' "$suite_dir/report1.txt" | cmp - CHECK_ALL_golden.txt || {
  echo "ci: check-all --jobs 1 report differs from CHECK_ALL_golden.txt" >&2
  exit 1
}
# every emitted artifact parses under the loaders' one JSON grammar
dune exec bin/yashme_cli.exe -- trace-lint "$suite_dir/corpus1.jsonl"
rm -rf "$suite_dir"

echo "== observe byte identity (--metrics --coverage and --attribution-out vs goldens)"
# The [metrics] and coverage blocks and the attribution projection
# (the non-timing columns) are pinned against committed goldens at
# both job counts: a change to the observe registry or its renderers
# may not move a single byte of them.
obs_dir=$(mktemp -d /tmp/yashme-ci-observe.XXXXXX)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged" "$progress" "$cov1" "$cov4" "$bench_cur" "$bench_rerun"; rm -rf "$obs_dir"' EXIT
for j in 1 2; do
  dune exec bin/yashme_cli.exe -- check-all --jobs $j --metrics --coverage \
    > "$obs_dir/observe$j.txt"
  cmp "$obs_dir/observe$j.txt" CHECK_ALL_OBSERVE_golden.txt || {
    echo "ci: check-all --jobs $j --metrics --coverage differs from CHECK_ALL_OBSERVE_golden.txt" >&2
    exit 1
  }
  dune exec bin/yashme_cli.exe -- check-all --jobs $j --quiet \
    --attribution-out "$obs_dir/attribution$j.jsonl" >/dev/null
  cmp "$obs_dir/attribution$j.jsonl" CHECK_ALL_ATTRIBUTION_golden.jsonl || {
    echo "ci: check-all --jobs $j --attribution-out differs from CHECK_ALL_ATTRIBUTION_golden.jsonl" >&2
    exit 1
  }
done
rm -rf "$obs_dir"

echo "== recovery-grid byte identity (check-all --mode mc-recovery vs golden)"
# Two-crash chains (setup -> pre -> post -> recovery) are where crash
# states inherit deepest; pin their report against the committed golden
# and across job counts.
rec_dir=$(mktemp -d /tmp/yashme-ci-recovery.XXXXXX)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged" "$progress" "$cov1" "$cov4" "$bench_cur" "$bench_rerun"; rm -rf "$rec_dir"' EXIT
for j in 1 2; do
  dune exec bin/yashme_cli.exe -- check-all --mode mc-recovery --jobs $j \
    > "$rec_dir/report$j.txt"
done
cmp "$rec_dir/report1.txt" CHECK_ALL_RECOVERY_golden.txt || {
  echo "ci: check-all --mode mc-recovery differs from CHECK_ALL_RECOVERY_golden.txt" >&2
  exit 1
}
cmp "$rec_dir/report1.txt" "$rec_dir/report2.txt" || {
  echo "ci: check-all --mode mc-recovery differs between --jobs 1 and --jobs 2" >&2
  exit 1
}
rm -rf "$rec_dir"

echo "== litmus-matrix smoke (variants x litmus vs committed golden)"
# The matrix pins every built-in persistency-model variant's divergence
# from strict-tso; any semantic drift fails against the committed table.
dune exec bin/yashme_cli.exe -- litmus --jobs 2 --quiet \
  --expect LITMUS_matrix.txt >/dev/null
# strict-tso is the default: an explicit --variant must not change a
# single report byte.
va=$(dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet)
vb=$(dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet \
  --variant strict-tso)
[ "$va" = "$vb" ] || {
  echo "ci: --variant strict-tso changed the CCEH report" >&2
  exit 1
}

echo "== profile smoke (trace -> hot-spot tables)"
dune exec bin/yashme_cli.exe -- profile "$trace" --top 5 >/dev/null

echo "== observatory smoke (--attribution invariance + ledger runs/compare)"
att1=$(mktemp /tmp/yashme-ci-att1.XXXXXX.jsonl)
att4=$(mktemp /tmp/yashme-ci-att4.XXXXXX.jsonl)
ledger=$(mktemp /tmp/yashme-ci-ledger.XXXXXX.jsonl)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged" "$progress" "$cov1" "$cov4" "$bench_cur" "$bench_rerun" "$att1" "$att4" "$ledger"' EXIT
rm -f "$ledger"
# the attribution invariant projection is byte-identical across --jobs
dune exec bin/yashme_cli.exe -- check CCEH --jobs 1 --quiet \
  --attribution-out "$att1" >/dev/null
dune exec bin/yashme_cli.exe -- check CCEH --jobs 4 --quiet \
  --attribution-out "$att4" >/dev/null
cmp "$att1" "$att4" || {
  echo "ci: attribution export differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- trace-lint "$att1"
# the [attribution] block names the distinct cost centers on CCEH
out=$(dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet \
  --attribution --ledger "$ledger")
for center in px86/snapshot_copy engine/queue_wait gc/minor; do
  echo "$out" | grep -q "$center" || {
    echo "ci: [attribution] block lacks cost center $center" >&2
    echo "$out" >&2
    exit 1
  }
done
# a second identical-config run must compare with zero non-timing deltas
dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet \
  --ledger "$ledger" >/dev/null
dune exec bin/yashme_cli.exe -- runs "$ledger" >/dev/null
dune exec bin/yashme_cli.exe -- trace-lint "$ledger"
dune exec bin/yashme_cli.exe -- compare "$ledger" 1 2
dune exec bin/yashme_cli.exe -- profile "$att1" --attribution >/dev/null

echo "== soak smoke (budgets + checkpoint/resume + quarantine)"
soak_m1=$(mktemp /tmp/yashme-ci-soak-m1.XXXXXX.jsonl)
soak_m2=$(mktemp /tmp/yashme-ci-soak-m2.XXXXXX.jsonl)
soak_c1=$(mktemp /tmp/yashme-ci-soak-c1.XXXXXX.jsonl)
soak_c2=$(mktemp /tmp/yashme-ci-soak-c2.XXXXXX.jsonl)
soak_mr=$(mktemp /tmp/yashme-ci-soak-mr.XXXXXX.jsonl)
soak_cr=$(mktemp /tmp/yashme-ci-soak-cr.XXXXXX.jsonl)
soak_prog=$(mktemp /tmp/yashme-ci-soak-prog.XXXXXX.jsonl)
oracle_c1=$(mktemp /tmp/yashme-ci-oracle-c1.XXXXXX.jsonl)
oracle_c4=$(mktemp /tmp/yashme-ci-oracle-c4.XXXXXX.jsonl)
oracle_min=$(mktemp /tmp/yashme-ci-oracle-min.XXXXXX.jsonl)
oracle_b0=$(mktemp /tmp/yashme-ci-oracle-b0.XXXXXX.jsonl)
oracle_b1=$(mktemp /tmp/yashme-ci-oracle-b1.XXXXXX.jsonl)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged" "$progress" "$cov1" "$cov4" "$bench_cur" "$bench_rerun" "$att1" "$att4" "$ledger" "$soak_m1" "$soak_m2" "$soak_c1" "$soak_c2" "$soak_mr" "$soak_cr" "$soak_prog" ${soak_m1}.s ${soak_m2}.s "$oracle_c1" "$oracle_c4" "$oracle_min" "$oracle_b0" "$oracle_b1"' EXIT
# A budgeted soak run must stop cleanly (soak_ok=true) with a
# manifest and progress stream the existing JSONL codec accepts.
dune exec bin/yashme_cli.exe -- soak cceh --seed 7 --max-ops 1200 --jobs 2 \
  --manifest "$soak_m1" --corpus-out "$soak_c1" --progress-out "$soak_prog" \
  --quiet >/dev/null
grep -q '"soak_ok":true' "$soak_m1" || {
  echo "ci: budgeted soak run did not end soak_ok=true" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- trace-lint "$soak_m1"
dune exec bin/yashme_cli.exe -- trace-lint "$soak_prog"
dune exec bin/yashme_cli.exe -- trace-lint "$soak_c1"
# Same seed, same budget: witnesses byte-identical, manifests
# identical modulo the timing stamps and the corpus path.
dune exec bin/yashme_cli.exe -- soak cceh --seed 7 --max-ops 1200 --jobs 2 \
  --manifest "$soak_m2" --corpus-out "$soak_c2" --quiet >/dev/null
cmp "$soak_c1" "$soak_c2" || {
  echo "ci: same-seed soak runs wrote different corpora" >&2
  exit 1
}
strip_soak_manifest() {
  sed -E 's/"ts":[0-9.eE+-]+//; s/"elapsed_s":[0-9.eE+-]+//; s/"corpus":"[^"]*"//' "$1"
}
strip_soak_manifest "$soak_m1" > "${soak_m1}.s"
strip_soak_manifest "$soak_m2" > "${soak_m2}.s"
cmp "${soak_m1}.s" "${soak_m2}.s" || {
  echo "ci: same-seed soak manifests differ beyond timing fields" >&2
  exit 1
}
# Soak witnesses replay through the ordinary corpus machinery.
dune exec bin/yashme_cli.exe -- replay "$soak_c1" --quiet
# Interrupt mid-soak (the SIGINT-equivalent cooperative stop), then
# resume from the checkpoint: the run must reach the exact witness
# bytes of the uninterrupted run.
dune exec bin/yashme_cli.exe -- soak cceh --seed 7 --max-ops 1200 --jobs 2 \
  --manifest "$soak_mr" --corpus-out "$soak_cr" --stop-after 3 --quiet \
  >/dev/null || true
grep -q '"soak_ok":false' "$soak_mr" || {
  echo "ci: interrupted soak run did not checkpoint soak_ok=false" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- soak --resume "$soak_mr" --quiet >/dev/null
grep -q '"soak_ok":true' "$soak_mr" || {
  echo "ci: resumed soak run did not end soak_ok=true" >&2
  exit 1
}
cmp "$soak_c1" "$soak_cr" || {
  echo "ci: resumed soak corpus differs from the uninterrupted run" >&2
  exit 1
}
# A fault storm (demo-storm's crashing delete handler) must be
# quarantined, not fatal: the run still reaches its budget.
out=$(dune exec bin/yashme_cli.exe -- soak demo-storm --seed 7 \
  --max-ops 800 --quiet)
echo "$out" | grep -q "soak_ok: true" || {
  echo "ci: fault-storm soak run did not survive to its budget" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -q "quarantined" || {
  echo "ci: fault-storm soak run quarantined nothing" >&2
  echo "$out" >&2
  exit 1
}

echo "== invariant-oracle smoke (check --oracle + corpus + replay + minimize)"
# The fixture the race detector must NOT flag: fully fenced, but the
# flag publishes before the data it guards persists — an oracle-only
# consistency violation with a stable plan-free key.
out=$(dune exec bin/yashme_cli.exe -- check --oracle demo-inconsistency \
  --corpus-out "$oracle_c1")
echo "$out" | grep -q "0 distinct persistency race(s)" || {
  echo "ci: race detector flagged demo-inconsistency" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -q "consistency-violation.*order:demo.data<demo.flag" || {
  echo "ci: oracle missed the demo-inconsistency ordering violation" >&2
  echo "$out" >&2
  exit 1
}
# Consistency witnesses replay (exit 0) and minimize in the build that
# recorded them.
dune exec bin/yashme_cli.exe -- replay "$oracle_c1" --quiet
dune exec bin/yashme_cli.exe -- minimize "$oracle_c1" -o "$oracle_min" --quiet
dune exec bin/yashme_cli.exe -- replay "$oracle_min" --quiet
# The oracle report (violations and the [oracle] block) is
# byte-identical across job counts, like every other report.
dune exec bin/yashme_cli.exe -- check --oracle demo-inconsistency --jobs 4 \
  --corpus-out "$oracle_c4" >/dev/null
cmp "$oracle_c1" "$oracle_c4" || {
  echo "ci: oracle corpus differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
# The oracle subcommands: infer prints the invariant set, check exits 1
# on a violation (the CI-gate contract).
dune exec bin/yashme_cli.exe -- oracle infer demo-inconsistency \
  | grep -q "order demo.data < demo.flag" || {
  echo "ci: oracle infer did not print the ordering invariant" >&2
  exit 1
}
if dune exec bin/yashme_cli.exe -- oracle check demo-inconsistency \
  >/dev/null 2>&1; then
  echo "ci: oracle check exited 0 on a violating program" >&2
  exit 1
fi

echo "== bench gate (committed baseline + back-to-back run)"
# The committed baseline must gate cleanly against a fresh run of the
# same tree.  Throughput numbers are machine-dependent, so the
# tolerance here is deliberately loose: the gate's job in CI is to
# catch collapses (and exercise the exit paths), not 5% noise.
dune exec bench/main.exe -- --throughput-only --jobs 2 --repeats 1 \
  --out "$bench_cur" >/dev/null
dune exec bin/yashme_cli.exe -- bench-diff BENCH_engine_throughput.json \
  "$bench_cur" --tolerance 400
# Bench summaries are JSONL under a .json name: lint a .jsonl copy.
bench_lint=$(mktemp /tmp/yashme-ci-bench-lint.XXXXXX.jsonl)
cp "$bench_cur" "$bench_lint"
dune exec bin/yashme_cli.exe -- trace-lint "$bench_lint" || {
  rm -f "$bench_lint"
  exit 1
}
rm -f "$bench_lint"
# Two back-to-back runs of the same build must pass a generous gate.
dune exec bench/main.exe -- --throughput-only --jobs 2 --repeats 1 \
  --out "$bench_rerun" >/dev/null
dune exec bin/yashme_cli.exe -- bench-diff "$bench_cur" "$bench_rerun" \
  --tolerance 200
# The gate compares only the named metric, so rows may gain or lose
# observability columns (e.g. the oracle counters) without tripping
# it — assert that in both directions with synthetic summaries.
printf '{"bench":"synthetic","jobs":2,"ops_per_s":100.0}\n' > "$oracle_b0"
printf '{"bench":"synthetic","jobs":2,"ops_per_s":100.0,"oracle_invariants":3,"oracle_violations":1}\n' > "$oracle_b1"
dune exec bin/yashme_cli.exe -- bench-diff "$oracle_b0" "$oracle_b1" >/dev/null || {
  echo "ci: bench-diff choked on a current file with extra metrics" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- bench-diff "$oracle_b1" "$oracle_b0" >/dev/null || {
  echo "ci: bench-diff choked on a baseline file with extra metrics" >&2
  exit 1
}

echo "== scaling observatory"
scale_out=$(mktemp /tmp/yashme-ci-scale.XXXXXX.jsonl)
scale_proj=$(mktemp /tmp/yashme-ci-scale-proj.XXXXXX.jsonl)
scale_proj2=$(mktemp /tmp/yashme-ci-scale-proj2.XXXXXX.jsonl)
scale_sweep=$(mktemp /tmp/yashme-ci-scale-sweep.XXXXXX.json)
trap 'rm -f "$trace" "$corpus" "$minimized" "$merged" "$progress" "$cov1" "$cov4" "$bench_cur" "$bench_rerun" "$att1" "$att4" "$ledger" "$soak_m1" "$soak_m2" "$soak_c1" "$soak_c2" "$soak_mr" "$soak_cr" "$soak_prog" ${soak_m1}.s ${soak_m2}.s "$oracle_c1" "$oracle_c4" "$oracle_min" "$oracle_b0" "$oracle_b1" "$scale_out" "$scale_proj" "$scale_proj2" "$scale_sweep"' EXIT
# A jobs sweep over one program: the full report and the non-timing
# projection must come out well-formed.  --timeline runs the traced
# branch (the top level's per-domain timeline).
dune exec bin/yashme_cli.exe -- scaling Memcached --jobs-list 1,2 \
  --out "$scale_out" --projection-out "$scale_proj" --timeline \
  --quiet >/dev/null
dune exec bin/yashme_cli.exe -- trace-lint "$scale_out"
# The non-timing projection is a function of the workload alone: a
# second sweep (levels listed in the opposite order) must reproduce it
# byte for byte.
dune exec bin/yashme_cli.exe -- scaling Memcached --jobs-list 2,1 \
  --projection-out "$scale_proj2" --quiet >/dev/null
cmp "$scale_proj" "$scale_proj2" || {
  echo "ci: scaling projection differs between sweep runs" >&2
  exit 1
}
# The scaling gate: a sweep summary self-compares clean, and the
# committed baseline gates a fresh sweep under a collapse-sized
# tolerance (speedup/efficiency are noisy in CI; the gate is there to
# catch a parallelism collapse, not scheduler jitter).
dune exec bench/main.exe -- --throughput-only --jobs-sweep 1,2 --repeats 1 \
  --out "$scale_sweep" >/dev/null
dune exec bin/yashme_cli.exe -- bench-diff --scaling "$scale_sweep" \
  "$scale_sweep"
dune exec bin/yashme_cli.exe -- bench-diff --scaling \
  BENCH_engine_throughput.json "$scale_sweep" --tolerance 300

echo "CI OK"
