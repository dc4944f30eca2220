#!/usr/bin/env bash
# Offline verification gate: tier-1 tests plus an end-to-end report run
# and a bench smoke test. No network access required — the workspace has
# no external dependencies.
#
# Usage: scripts/verify.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> static: repro lint (determinism + plane safety)"
./target/release/repro lint

echo "==> static: repro lint --audit (no stale suppressions)"
./target/release/repro lint --audit > /dev/null 2> /tmp/verify_audit.txt
grep -q ", 0 stale" /tmp/verify_audit.txt

echo "==> static: cargo clippy -D warnings"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> end-to-end: repro --quick all"
start_ms=$(date +%s%3N)
./target/release/repro --quick all > /tmp/verify_report.txt
end_ms=$(date +%s%3N)
echo "    report: $(wc -c < /tmp/verify_report.txt) bytes in $((end_ms - start_ms)) ms"

echo "==> golden: report byte-identical to scripts/golden/quick_all_stdout.txt"
cmp scripts/golden/quick_all_stdout.txt /tmp/verify_report.txt

echo "==> sanitizer: repro --quick --sanitize all (must be clean and byte-identical)"
./target/release/repro --quick --sanitize all > /tmp/verify_report_san.txt
cmp /tmp/verify_report.txt /tmp/verify_report_san.txt

echo "==> observer: repro --quick --observe all (report on stderr, stdout byte-identical)"
./target/release/repro --quick --observe all > /tmp/verify_report_obs.txt 2> /tmp/verify_obs_stderr.txt
cmp /tmp/verify_report.txt /tmp/verify_report_obs.txt
grep -q "obs.events.recorded" /tmp/verify_obs_stderr.txt

echo "==> parallel engine: repro --quick --threads 4 all (byte-identical to threads=1)"
./target/release/repro --quick --threads 4 all > /tmp/verify_report_par.txt
cmp /tmp/verify_report.txt /tmp/verify_report_par.txt

echo "==> racecheck: repro --quick --racecheck all at threads 1 and 4 (clean, byte-identical)"
./target/release/repro --quick --racecheck all > /tmp/verify_report_rc1.txt 2> /tmp/verify_rc1_stderr.txt
cmp /tmp/verify_report.txt /tmp/verify_report_rc1.txt
grep -q "racecheck: clean" /tmp/verify_rc1_stderr.txt
./target/release/repro --quick --racecheck --threads 4 all > /tmp/verify_report_rc4.txt 2> /tmp/verify_rc4_stderr.txt
cmp /tmp/verify_report.txt /tmp/verify_report_rc4.txt
grep -q "racecheck: clean" /tmp/verify_rc4_stderr.txt

echo "==> fast path off: repro --quick --no-fastpath all (byte-identical to fast path on)"
./target/release/repro --quick --no-fastpath all > /tmp/verify_report_nofp.txt
cmp /tmp/verify_report.txt /tmp/verify_report_nofp.txt

echo "==> fast path off + sanitize/threads/faults (byte-identical across the matrix)"
./target/release/repro --quick --no-fastpath --sanitize all > /tmp/verify_report_nofp_san.txt
cmp /tmp/verify_report.txt /tmp/verify_report_nofp_san.txt
./target/release/repro --quick --no-fastpath --threads 4 all > /tmp/verify_report_nofp_par.txt
cmp /tmp/verify_report.txt /tmp/verify_report_nofp_par.txt
./target/release/repro --quick --sanitize faults > /tmp/verify_faults_fp.txt
./target/release/repro --quick --no-fastpath --sanitize faults > /tmp/verify_faults_nofp.txt
cmp /tmp/verify_faults_fp.txt /tmp/verify_faults_nofp.txt
./target/release/repro --quick --no-fastpath --observe all > /tmp/verify_report_nofp_obs.txt 2> /tmp/verify_nofp_obs_stderr.txt
cmp /tmp/verify_report.txt /tmp/verify_report_nofp_obs.txt
# The obs report is deterministic except the wall-clock timing line.
grep -v "study complete in" /tmp/verify_obs_stderr.txt > /tmp/verify_obs_a.txt
grep -v "study complete in" /tmp/verify_nofp_obs_stderr.txt > /tmp/verify_obs_b.txt
cmp /tmp/verify_obs_a.txt /tmp/verify_obs_b.txt

echo "==> selftrace: repro --quick selftrace (round trip exact, identities agree)"
./target/release/repro --quick selftrace > /tmp/verify_selftrace.txt
grep -q "round trip exact" /tmp/verify_selftrace.txt
grep -q "Self-trace verdict: agree" /tmp/verify_selftrace.txt

echo "==> cli: unknown subcommand exits 2 with usage"
set +e
./target/release/repro frobnicate > /dev/null 2> /tmp/verify_usage.txt
usage_status=$?
set -e
test "$usage_status" -eq 2 || { echo "unknown subcommand must exit 2, got $usage_status"; exit 1; }
grep -q "usage: repro" /tmp/verify_usage.txt
grep -q "selftrace" /tmp/verify_usage.txt

echo "==> cli: --help and -h print usage on stdout and exit 0"
for flag in --help -h; do
    ./target/release/repro "$flag" > /tmp/verify_help.txt
    grep -q "usage: repro" /tmp/verify_help.txt
done

echo "==> causalprof off: --causal never perturbs the campaign stdout"
./target/release/repro --quick --causal all > /tmp/verify_report_causal.txt
cmp /tmp/verify_report.txt /tmp/verify_report_causal.txt

echo "==> causalprof: profile --causal reports occupancy, blame, and an exact 2-lane agreement"
./target/release/repro --quick --traces 1 --days 1 profile --causal > /tmp/verify_causal_profile.txt
grep -q "CausalProf (canonical machine" /tmp/verify_causal_profile.txt
grep -q "occupancy over T_crit: coordinator" /tmp/verify_causal_profile.txt
grep -q "coordinator-serial blame" /tmp/verify_causal_profile.txt
grep -q "round-bound agreement at 2 lanes" /tmp/verify_causal_profile.txt
python3 - /tmp/verify_causal_profile.txt <<'PYEOF'
import re, sys
txt = open(sys.argv[1]).read()
m = re.search(r"round-bound agreement at 2 lanes: causal ([\d.]+)x vs engine ([\d.]+)x", txt)
assert m, "agreement line missing"
causal, engine = float(m.group(1)), float(m.group(2))
assert abs(causal - engine) <= 0.05 * engine, f"causal {causal} vs engine {engine} drifts > 5%"
PYEOF

echo "==> causalprof: --trace-out byte-identical at threads 1 and 4"
./target/release/repro --quick --traces 1 --days 1 --threads 1 profile --causal --trace-out /tmp/verify_trace_t1.json > /dev/null
./target/release/repro --quick --traces 1 --days 1 --threads 4 profile --causal --trace-out /tmp/verify_trace_t4.json > /dev/null
cmp /tmp/verify_trace_t1.json /tmp/verify_trace_t4.json
grep -q '"displayTimeUnit"' /tmp/verify_trace_t1.json

echo "==> fault matrix: repro --quick --sanitize faults (clean, deterministic, nonzero)"
./target/release/repro --quick --sanitize faults > /tmp/verify_faults_1.txt
./target/release/repro --quick --sanitize faults > /tmp/verify_faults_2.txt
cmp /tmp/verify_faults_1.txt /tmp/verify_faults_2.txt
grep -q "recovery storm RPCs: [1-9]" /tmp/verify_faults_1.txt
grep -q "data lost at server crash: [1-9]" /tmp/verify_faults_1.txt
# Partition study: leases must recall state (TTL < cut) and beat the
# conservative baseline's per-file revalidation heal storm.
grep -q "lease-expiry recalls            [1-9]" /tmp/verify_faults_1.txt
python3 - /tmp/verify_faults_1.txt <<'PYEOF'
import re, sys
txt = open(sys.argv[1]).read()
m = re.search(r"heal-storm RPCs\s+(\d+)\s+(\d+)", txt)
assert m, "heal-storm row missing from faults report"
lease, conserv = int(m.group(1)), int(m.group(2))
assert lease < conserv, f"lease storm {lease} must beat conservative {conserv}"
PYEOF

echo "==> fault matrix under racecheck and threads 4 (sequential fallback, byte-identical)"
./target/release/repro --quick --racecheck faults > /tmp/verify_faults_rc.txt 2> /tmp/verify_faults_rc_err.txt
cmp /tmp/verify_faults_1.txt /tmp/verify_faults_rc.txt
./target/release/repro --quick --threads 4 faults > /tmp/verify_faults_t4.txt
cmp /tmp/verify_faults_1.txt /tmp/verify_faults_t4.txt

echo "==> bench smoke: repro bench"
tmpdir=$(mktemp -d)
(cd "$tmpdir" && "$OLDPWD"/target/release/repro bench > /dev/null)
test -s "$tmpdir/BENCH_0001.json"
grep -q '"end_to_end"' "$tmpdir/BENCH_0001.json"
test -s "$tmpdir/BENCH_0002.json"
grep -q '"end_to_end_obs_off_secs"' "$tmpdir/BENCH_0002.json"
grep -q '"report_bytes_identical": true' "$tmpdir/BENCH_0002.json"
test -s "$tmpdir/BENCH_0003.json"
grep -q '"records_identical_across_shards": true' "$tmpdir/BENCH_0003.json"
grep -q '"shard_threads": 2' "$tmpdir/BENCH_0003.json"
# The decomposition bound is machine-independent (wall clock is not on
# small hosts): >= 4x available data-plane parallelism at 8 threads.
python3 - "$tmpdir/BENCH_0003.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
bound = doc["simulate_speedup_bound_max_vs_1"]
assert bound >= 4.0, f"data-plane speedup bound {bound} < 4.0"
EOF
test -s "$tmpdir/BENCH_0005.json"
python3 - "$tmpdir/BENCH_0005.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
# CausalProf's reconstruction of the dispatch rounds must reproduce the
# engine's own round-count bound from BENCH_0003 within 5% (we expect
# exact agreement — the analyzer replays the same seal rule).
ratio = doc["round_bound_agreement_ratio"]
assert 0.95 <= ratio <= 1.05, f"causal/engine round-bound ratio {ratio} outside 5%"
# Decomposition must tile the critical path exactly: no unattributed time.
assert doc["decomposition_gap_us"] == 0, f"gap {doc['decomposition_gap_us']} us"
# Occupancy sanity: shares are percentages and the three components
# cover the whole critical path.
pct = doc["critical_path_pct"]
total = pct["coordinator"] + pct["workers"] + pct["replay"]
assert 99.9 <= total <= 100.1, f"critical-path shares sum to {total}"
for t in doc["per_trace"]:
    assert 0.0 <= t["coordinator_util_pct"] <= 100.0, t
    assert 0.0 <= t["worker_mean_util_pct"] <= 100.0, t
    assert t["speedup_bound_time"] >= 1.0, t
EOF
test -s "$tmpdir/BENCH_0004.json"
grep -q '"records_identical_on_vs_off": true' "$tmpdir/BENCH_0004.json"
python3 - "$tmpdir/BENCH_0004.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
# The dispatch-round bound must beat the task-based bound of the
# previous PR (7.07 at 8 threads): coalescing shortens the critical
# path in coordinator hand-offs.
bound = doc["data_plane_speedup_bound"]
assert bound > doc["data_plane_speedup_bound_prev_pr"], f"round bound {bound} did not beat prev"
# The calm summaries must carry most of the open/close traffic.
hit = doc["fastpath_hit_rate_pct"]
assert hit > 50.0, f"fast-path hit rate {hit}% too low"
# The open/close decision path — the code the fast path replaces —
# must be at least 1.3x faster. (The full-campaign wall ratio is
# diluted by data-plane block work that is byte-identical on both
# sides by design, so it is reported but not gated.)
dec = doc["open_close_decision_speedup_on_vs_off"]
assert dec >= 1.3, f"open/close decision speedup {dec} < 1.3"
EOF
rm -rf "$tmpdir"

echo "==> perfbench: quick_campaign digests match perfbench/reference.txt (failed = 0)"
python3 perfbench/run.py --workload quick_campaign --seed 1 --seconds 1 --trace 0 > /tmp/verify_perfbench.txt
tail -n 1 /tmp/verify_perfbench.txt | grep -q '"failed": 0'

echo "verify: OK"
