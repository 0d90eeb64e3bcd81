#!/bin/sh
# End-to-end CLI smoke test: corpus -> study -> vet on real files.
set -e
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$CLI" universe --apis 8000 --seed 7 > "$DIR/universe.txt"
grep -q "APIs *: 8000" "$DIR/universe.txt"

"$CLI" corpus --apis 8000 --seed 7 --apps 6 --out "$DIR/apks"
[ "$(ls "$DIR"/apks/*.apk | wc -l)" = "6" ]
[ -f "$DIR/apks/labels.csv" ]

"$CLI" study --apis 8000 --seed 7 --apps 400 --model "$DIR/model.bin"
[ -s "$DIR/model.bin" ]

# Verdicts end the per-file line, so anchor to end-of-line (the stats summary
# also mentions metric names like apichecker_core_verdict_benign_total).
"$CLI" vet --apis 8000 --seed 7 --model "$DIR/model.bin" \
       --metrics-out "$DIR/metrics.json" "$DIR"/apks/*.apk > "$DIR/verdicts.txt"
[ "$(grep -cE '(benign|MALICIOUS)$' "$DIR/verdicts.txt")" = "6" ]

# The metrics dump must carry the farm, classifier, and review-outcome series.
grep -q 'apichecker_emu_farm_makespan_minutes' "$DIR/metrics.json"
grep -q 'apichecker_emu_app_minutes' "$DIR/metrics.json"
grep -q 'apichecker_core_classify_latency_us' "$DIR/metrics.json"
grep -q 'apichecker_core_verdict_malicious_total' "$DIR/metrics.json"
grep -q 'apichecker_market_outcome_published_total' "$DIR/metrics.json"
# Vetting a file is one market review outcome: published plus rejected by
# APICHECKER adds up to the six verdicts.
outcome() {
  grep -o "\"apichecker_market_outcome_$2_total\": [0-9]*" "$1" | sed 's/.*: //'
}
[ "$(( $(outcome "$DIR/metrics.json" published) + \
       $(outcome "$DIR/metrics.json" rejected_apichecker) ))" = "6" ]

# Online serving: replay a small trace through the vetting service. The run
# must keep the no-lost-submissions invariant and dump the serve series.
"$CLI" serve --apis 8000 --seed 7 --apps 40 --model "$DIR/model.bin" \
       --metrics-out "$DIR/serve_metrics.json" > "$DIR/serve.txt"
grep -q "invariant accepted == resolved: OK" "$DIR/serve.txt"
grep -q "hot-swapped model mid-trace" "$DIR/serve.txt"
grep -q 'apichecker_serve_submissions_total' "$DIR/serve_metrics.json"
grep -q 'apichecker_serve_e2e_latency_ms' "$DIR/serve_metrics.json"
# Serving a verdict is not the market publishing the app: serve records no
# review outcome.
[ "$(outcome "$DIR/serve_metrics.json" published)" = "0" ]
[ "$(outcome "$DIR/serve_metrics.json" rejected_apichecker)" = "0" ]

# Vet must fail cleanly on garbage input.
echo "not an apk" > "$DIR/garbage.apk"
if "$CLI" vet --apis 8000 --seed 7 --model "$DIR/model.bin" "$DIR/garbage.apk" | grep -q ERROR; then
  echo "CLI OK"
else
  echo "garbage handling failed" >&2
  exit 1
fi
