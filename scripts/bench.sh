#!/usr/bin/env bash
# bench.sh — run the key autoax benchmarks and emit machine-readable JSON.
#
# Usage:
#   scripts/bench.sh                          # print flat JSON to stdout
#   scripts/bench.sh -o run.json              # write flat JSON
#   scripts/bench.sh -baseline before.json -o BENCH_PR4.json
#                                             # before/after/speedup report
#
# Environment:
#   BENCH_COUNT   repetitions per benchmark (default 3; fastest run kept)
#   BENCH_FILTER  -bench regexp override (default: the 25 root-package
#                 benchmarks in FILTER below, which are the rows the next
#                 paragraph names plus LibraryBuild, ProgramDiskCacheWarm,
#                 ProgramDiskColdFill and Profile)
#
# The trajectory benchmarks cover both paper inner loops: precise
# configuration analysis (NetlistEvalBlockWide, Characterize,
# CharacterizeHighError, UnpackBitsBlock, Simplify, Synthesize,
# PreciseEvaluation, EvaluateAll, SSIM) and model-based estimation (ModelEstimate,
# ModelTables for the per-job leaf-table build, and the search engines
# HillClimb1k, RandomSearch1k and NSGA2Gen1k, and HillClimb50k, one
# climb of a pipeline job's 10⁵-estimate explore stage), plus
# RandomForestFit, MLPFit and
# AutoEngineTrain (the whole 13-engine bake-off train stage) for
# training, and the observability hot path (ObsCounter, ObsHistogram,
# HillClimb1kObserved — compare against HillClimb1k for the instrumented
# overhead).
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER=${BENCH_FILTER:-'^(BenchmarkNetlistEvalBlockWide|BenchmarkCharacterize|BenchmarkCharacterizeHighError|BenchmarkUnpackBitsBlock|BenchmarkLibraryBuild|BenchmarkPreciseEvaluation|BenchmarkEvaluateAll|BenchmarkProgramDiskCacheWarm|BenchmarkProgramDiskColdFill|BenchmarkHillClimb1k|BenchmarkHillClimb50k|BenchmarkHillClimb1kObserved|BenchmarkNSGA2Gen1k|BenchmarkRandomSearch1k|BenchmarkModelEstimate|BenchmarkModelTables|BenchmarkSSIM|BenchmarkSimplify|BenchmarkSynthesize|BenchmarkProfile|BenchmarkRandomForestFit|BenchmarkMLPFit|BenchmarkAutoEngineTrain|BenchmarkObsCounter|BenchmarkObsHistogram)$'}
COUNT=${BENCH_COUNT:-3}

# Every tracked benchmark lives in the root package.
go test -run '^$' -bench "$FILTER" -benchmem -count "$COUNT" . |
	go run ./scripts/benchjson "$@"
