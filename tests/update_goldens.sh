#!/bin/sh
# Regenerate the golden JSON fixtures under tests/goldens/ after an
# intentional behavior change. Run from the repo root with the build
# directory as the optional first argument:
#
#   tests/update_goldens.sh [--bench] [build-dir]
#
# With --bench, also regenerate the bench baselines under
# bench/baselines/ from the same build, so golden and baseline
# refreshes land in one reviewed diff: paper_figures.txt and
# BENCH_fig1{0,1,2}.json (paper_figures), serve_figures.txt,
# BENCH_serve.json, SWEEP_flashcrowd.json, BENCH_lookahead.json and
# BENCH_powercap.json (serve_figures), BENCH_scale.json and
# BENCH_spmm.json. The two figure binaries run inside bench/baselines
# with --json-dir ., so their "wrote ./..." lines match the pin runs'.
# BENCH_scale.json records sim_rps derated 8x (serve_scale
# --baseline): it gates wallclock throughput, so the baseline needs
# headroom for CI hosts slower than the recording machine.
# BENCH_spmm.json records speedup_vec derated 2x (spmm_kernels
# --baseline): a within-process wallclock ratio, so it needs less
# headroom than an absolute-throughput gate, but CI hosts with
# narrower SIMD than the recording machine still see smaller ratios.
#
# Goldens and baselines are byte-exact, so regenerate them on the
# same toolchain/platform class the CI comparison runs on; review the
# diff before committing — every changed byte is a behavior change.
set -eu

BENCH=0
BUILD=build
for arg in "$@"; do
    case "$arg" in
      --bench) BENCH=1 ;;
      -*)
        echo "error: unknown flag $arg (usage:" \
             "tests/update_goldens.sh [--bench] [build-dir])" >&2
        exit 1
        ;;
      *) BUILD=$arg ;;
    esac
done
BIN="$BUILD/tests/test_goldens"

if [ ! -x "$BIN" ]; then
    echo "error: $BIN not built; run: cmake --build $BUILD -j" >&2
    exit 1
fi

HYGCN_UPDATE_GOLDENS=1 "$BIN"

if [ "$BENCH" = 1 ]; then
    for bench in paper_figures serve_figures serve_scale spmm_kernels; do
        if [ ! -x "$BUILD/bench/$bench" ]; then
            echo "error: $BUILD/bench/$bench not built; run:" \
                 "cmake --build $BUILD -j --target $bench" >&2
            exit 1
        fi
    done
    BENCHES=$(cd "$BUILD/bench" && pwd)
    for figures in paper_figures serve_figures; do
        (cd bench/baselines &&
            "$BENCHES/$figures" --json-dir . > "$figures.txt")
    done
    "$BUILD/bench/serve_scale" --baseline \
        bench/baselines/BENCH_scale.json
    "$BUILD/bench/spmm_kernels" --baseline \
        bench/baselines/BENCH_spmm.json
fi
