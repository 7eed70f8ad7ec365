#!/bin/sh
# Full verification gate, equivalent to `make check`: build, vet, the test
# suite, the race detector over the internal packages, and the fuzz seed
# corpora (hostile block/tuple headers must stay rejected; hostile WAL
# bytes must replay to a clean prefix without a panic).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
# A hung test fails after 300s with every goroutine's stack.
GOTRACEBACK=all go test -race -timeout 300s ./internal/...
go test -run 'Fuzz' ./internal/storage/

# EXPLAIN ANALYZE golden output: the executed-plan tree must keep its
# Postgres-style shape — node headers, tree connectors, and per-node
# actual annotations — end to end through the SQL front-end.
plan=$(go run ./cmd/corgisql -c "CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05) WITH block_size=16KB; EXPLAIN ANALYZE SELECT * FROM t TRAIN BY svm WITH shuffle='corgipile', buffer_fraction=0.1, max_epoch_num=2")
echo "$plan" | grep -q 'SGD (model=svm'
echo "$plan" | grep -q '└─ TupleShuffle'
echo "$plan" | grep -q '└─ BlockShuffle'
echo "$plan" | grep -q '(actual: rows='
echo "$plan" | grep -q 'EXPLAIN ANALYZE: model'

# Serving-plane smoke: boot corgiserved, replay the docs/PROTOCOL.md
# transcript byte-for-byte, scrape per-job telemetry, run -serve-load.
./scripts/serve_smoke.sh

# Durability smoke: SIGKILL a WAL-backed corgiserved mid-catalog, restart
# without -init, assert recovery + incremental TRAIN ... resume.
./scripts/recovery_smoke.sh

# Replication smoke: primary + streaming replica, lag gauge to zero,
# SIGKILL the primary mid-ingest, PROMOTE, and assert the promoted
# server's resume TRAIN is byte-identical to single-node crash recovery.
./scripts/replication_smoke.sh

# Introspection smoke: boot corgiserved with the event log on, start a
# detached traced TRAIN, and interrogate the live server with SELECT
# (corgi_jobs / corgi_metrics / corgi_events) over the wire; probe
# /healthz, /readyz, and the WAL gauges.
./scripts/introspect_smoke.sh

# Metrics-history smoke: boot corgiserved with -sample and an -alert
# rule, train through injected faults, and assert the time series
# (corgi_metrics_history / /metrics/history), the firing→resolved alert
# (corgi_alerts / /alertz / event log), per-job stats (corgi_job_stats),
# and a corgitop -once frame.
./scripts/history_smoke.sh
