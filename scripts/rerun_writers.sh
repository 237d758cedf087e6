#!/usr/bin/env bash
# Run every writer of the command line once into OUT_DIR: the reproduced
# tables, a fit of each basis and estimator route, each followed by a 3-step
# forecast, and the four bundled Monte Carlo sweeps at 20 replications.  Two
# runs of one checkout, or of two checkouts that claim the same numbers, must
# agree byte for byte bar the manifests:
#
#   scripts/rerun_writers.sh a && scripts/rerun_writers.sh b
#   diff -r -x run_manifest.json a b
#
# greymatch runs as `python -m greymatch.cli`, installed or on PYTHONPATH.
set -euo pipefail
out=${1:?usage: $0 OUT_DIR}
mkdir -p "$out"

greymatch() { python -m greymatch.cli "$@" > /dev/null; }

# fit NAME SERIES FLAGS...: a fit of the bundled SERIES, then its forecast
fit() {
  local name=$1 series=$2
  shift 2
  greymatch fit "$out/$series.csv" "$@" --out-dir "$out/$name"
  greymatch forecast "$out/$name/fit.json" --horizon 3 --out-dir "$out/$name-forecast"
}

python - "$out" <<'PY'
import sys
from greymatch.datasets import SEWAGE_VALUES, WATER_VALUES
for name, values in (("sewage", SEWAGE_VALUES), ("water", WATER_VALUES)):
    with open(f"{sys.argv[1]}/{name}.csv", "w") as handle:
        handle.write("t,x1\n" + "".join(f"{t},{x}\n" for t, x in enumerate(values, 1)))
PY

for table in 3 4 forecasts; do
  greymatch reproduce --table "$table" --out-dir "$out/table-$table"
done
fit matching sewage --model igvm
fit grey sewage --model igvm --method grey --init-strategy fix_last
fit ingbm sewage --model ingbm --gamma-search 0,2,0.05 --split 11
fit water-ingbm-grey water --model ingbm --gamma 0.63 --method grey \
  --init-strategy residual_correction
fit poly3 sewage --model poly:3
for sweep in verhulst-n-sweep verhulst-noise-sweep lv-noise-sweep lv-n-sweep; do
  greymatch mc "$sweep" --replications 20 --out-dir "$out/mc-$sweep"
done
