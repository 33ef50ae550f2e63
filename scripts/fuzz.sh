#!/bin/sh
# fuzz.sh: run every fuzz target for the given time each, one after
# another, printing each target as it starts:
#
#   sh scripts/fuzz.sh 10s
#
# The list below is the repository's only list of fuzz targets: `make
# fuzz`, `make fuzz-smoke` and the CI fuzz-smoke job all run it. A new
# fuzz target is added here once.
set -eu

GO=${GO:-go}
FUZZTIME=${1:?usage: sh scripts/fuzz.sh <fuzztime>}

while read -r target pkg; do
	echo "== $target ($pkg, $FUZZTIME)"
	$GO test -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$pkg" </dev/null
done <<EOF
FuzzParse ./internal/model/
FuzzParseTerm ./internal/model/
FuzzParseSpec ./internal/pattern/
FuzzStreamOps ./internal/pattern/
FuzzStreamEquivalence ./internal/memsim/
FuzzSweepAnalytic ./internal/sweep/
FuzzCollectiveSchedule ./internal/collective/
FuzzCollectiveWordsLaw ./internal/query/
FuzzPointHitBytes ./internal/serve/
FuzzRoutedPointBytes ./internal/router/
FuzzBatchMatchesReference ./internal/netsim/
FuzzCertifiedLawMatchesReference ./internal/xfer/
FuzzReusedSimulatorMatchesFresh ./internal/machine/
FuzzPlanMatchesReference ./internal/distrib/
FuzzClassify ./internal/distrib/
FuzzMachineJSONRoundTrip ./internal/machine/
EOF
