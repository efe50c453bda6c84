# Developer entry points. CI (.github/workflows/ci.yml) runs `make ci`,
# so the pipeline and developers exercise exactly the same commands.

GO ?= go

# Output of `make bench-json`. The default is a scratch name (ignored by
# git); a PR commits its snapshot with one explicit invocation,
# `make bench-json BENCH_OUT=BENCH_prN.json`. CI uploads the default file
# as a per-commit artifact so the perf trajectory is downloadable per run.
BENCH_OUT ?= BENCH.json

.PHONY: build test race fuzz-smoke bench bench-smoke bench-json vet fmt-check staticcheck detlint ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# GOMAXPROCS is pinned above 1 so the race detector actually sees the
# concurrent collection, parallel merge and WaitChildren pools race
# against each other instead of running effectively serialized. The
# whole module is covered, not just internal/: the root package's
# Session hands a live machine between goroutines at every Step, and the
# daemons sit on top of it.
race:
	GOMAXPROCS=4 $(GO) test -race ./...

# Ten seconds of native fuzzing on the chunk decoder, the one parser in
# the module that reads bytes straight off a disk before anything has
# hashed them. The seed corpus (codec_test.go's hostile-record table)
# also runs as a plain test under `make test`; this target is what
# mutates it. A crasher is written to internal/castore/testdata/fuzz and
# fails every later `go test` until fixed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeBlob -fuzztime 10s ./internal/castore

# Full-size experiment tables (slow); see also `go run ./cmd/detbench`.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Quick experiments end to end: proves the bench harness still runs,
# the dsched round engine still completes its blocked-heavy workload, the kv
# reconciliation sweep still checksums identically across merge workers,
# the sharded barrier tree still matches the flat collector bit for bit
# while cutting the root's cross-node messages, every checkpoint sweep
# row still resumes bit-identically to its uninterrupted run, the
# serving fabric still bounds resident pages by the cap while serving
# 1024 open sessions (killed-worker failovers asserted bit-equal), and
# the build executor's warm builds still fetch >=90% of results with
# checksums bit-equal to cold.
bench-smoke:
	$(GO) test -bench='Fig4|MergeTable|DschedRound|KVTable|ClusterTable|CkptTable|ServeTable|MakeTable' -benchtime=1x -run='^$$' .

# Machine-readable perf snapshot for the repo's trajectory artifacts
# (BENCH_pr2.json and successors; see BENCH_OUT above). tab3 rides along
# so every snapshot carries the module's code size beside its numbers.
bench-json:
	$(GO) run ./cmd/detbench -run dsched,merge,kv,cluster,ckpt,serve,make,tab3 -quick -json > $(BENCH_OUT)

# Mirrors the pinned CI job; requires staticcheck on PATH
# (go install honnef.co/go/tools/cmd/staticcheck@2025.1).
staticcheck:
	staticcheck ./...

# The determinism analyzers (internal/detlint): maporder, walltime,
# globalmut, goroutinepool, errcmp. Exits nonzero on any finding not
# covered by a justified //detlint:allow — see docs/determinism-rules.md.
detlint:
	$(GO) run ./cmd/detlint ./...

ci: build vet fmt-check detlint test race fuzz-smoke bench-smoke bench-json
	@if command -v staticcheck >/dev/null 2>&1; then \
		$(MAKE) staticcheck; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned job)"; \
	fi
