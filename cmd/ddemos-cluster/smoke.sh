#!/usr/bin/env bash
# Real-process smokes of the one-command cluster, as CI runs them. Run from
# the repository root, in a checkout that may have no bin/ yet:
#
#   bash cmd/ddemos-cluster/smoke.sh
#
# It builds every binary into ./bin/, then makes two runs, each over
# authenticated, batched TCP links between the VCs:
#   - the cluster smoke: 4 VCs, 3 BBs, 3 trustees, 1 000 ballots, a paced
#     open-loop load, booted over the EA's zero-copy segment handoff; it must
#     publish a result and pass the audit, and its report must say so;
#   - the churn smoke: the same deployment on the ACS engine with journaled
#     nodes, SIGKILLed and restarted under live load; it must publish.
# Each run leaves cluster-<name>.json and cluster-<name>.log in the current
# directory. The script stops at the first check that fails, the cluster's
# own exit status included (it fails a run whose result is not published,
# audited and consistent with the load).
set -euo pipefail

go build -o ./bin/ ./cmd/...

# The cluster always boots over the zero-copy setup handoff: the EA emits
# per-VC segment directories and the VCs open them directly. The harness
# verifies the emitted directories and logs the line grepped below; a silent
# regression to inline pools fails here.
./bin/ddemos-cluster -vc 4 -bb 3 -trustees 3 -ballots 1000 \
  -rate 150 -duration 20s -boot 25s \
  -out cluster-smoke.json 2>&1 | tee cluster-smoke.log
grep -q "zero-copy handoff" cluster-smoke.log
grep -q "result published" cluster-smoke.log
grep -q "audit PASSED" cluster-smoke.log
jq -e '.errors == 0' cluster-smoke.json
jq -e '.distinct_serials > 0' cluster-smoke.json
jq -e '.publish_s > 0' cluster-smoke.json

# -consensus acs runs the deployment on the BKR/ACS vote-set-consensus
# engine, with churned VCs restarting into the same engine: the
# multi-process analogue of the engine-rotation sweep.
./bin/ddemos-cluster -vc 4 -bb 3 -trustees 3 -ballots 500 \
  -rate 100 -duration 15s -boot 25s -consensus acs \
  -durable -churn 5s -churn-bb -max-error-rate 0.2 \
  -out cluster-churn.json 2>&1 | tee cluster-churn.log
grep -q "result published" cluster-churn.log
test -s cluster-churn.json

echo "smoke: both cluster runs passed"
