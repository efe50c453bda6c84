# Developer entry points. CI (.github/workflows/ci.yml) runs `make ci`,
# so the pipeline and developers exercise exactly the same commands.

GO ?= go

# Output of `make bench-json`: a scratch name ignored by git, which CI
# uploads as a per-commit artifact. PRs no longer commit BENCH_prN.json
# snapshots: the exact trajectory is `git log -p` of
# internal/bench/testdata/quick.golden.json and BENCH_EXACT.golden, the
# wall-clock trajectory is `go run ./benchmark`.
BENCH_OUT ?= BENCH.json

.PHONY: build test race fuzz-smoke bench bench-smoke bench-exact bench-json tab3 census vet fmt-check staticcheck detlint ci

build:
	$(GO) build ./...

# Besides `go vet`: every binary format frames itself with imgenc.Seal
# and Open, so product code outside internal/imgenc has no business with
# CRC32 — a format that imports it is hand-rolling a seventh trailer.
# Likewise package unsafe has one product use, the byte view of a run of
# words in vm's move (internal/vm/vm.go); anywhere else it is refused.
vet:
	$(GO) vet ./...
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=testdata --exclude-dir=imgenc '"hash/crc32"' .); \
	if [ -n "$$out" ]; then echo "hash/crc32 imported outside internal/imgenc (use imgenc.Seal/Open):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '"unsafe"' . | grep -vx './internal/vm/vm.go'); \
	if [ -n "$$out" ]; then echo "unsafe imported outside internal/vm/vm.go (its one use is move's byte view):"; echo "$$out"; exit 1; fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# GOMAXPROCS is pinned above 1 so the race detector actually sees
# concurrently running spaces — a parent merging one child while its
# siblings still execute — instead of an effectively serialized run. The
# whole module is covered, not just internal/: the root package's
# Session hands a live machine between goroutines at every Step, and the
# daemons sit on top of it. Tests and benchmarks run in a shuffled order:
# a deterministic system's tests have no business depending on the order
# they were declared in. `go test` prints the seed ("-test.shuffle N") at
# the head of a package's output when it fails; re-run that package with
# -shuffle=N to get the same order back.
race:
	GOMAXPROCS=4 $(GO) test -race -shuffle=on ./...

# Ten seconds of native fuzzing on each decoder of bytes that came off a
# disk: the chunk codec and the node framing, the decoders a checkpoint
# passes through on its way back from a store — the chunk root
# (vm.UnchunkForest), the flat forest (vm.DecodeForest), the machine
# image (kernel.Restore/SplitImage), and the session image and the
# manifest that wrap them (repro.DecodeImage, repro.DecodeManifest) —
# and the build cache's result manifest, all over imgenc's envelope and
# cursor; on the two
# decoders of bytes another space wrote: detmake's task message, over
# the same cursor, and fs.Attach; on the ref value parser
# (DirStore.Ref), which every Collect runs over every file with a ref's
# name; on detmake's build-file parser, whose errors must not quote a
# hostile field whole; and on the trace log a session image carries
# (trace.Unmarshal) — thirteen targets; and on one that decodes no
# stored bytes but a script: FuzzMergeRule holds vm.MergeEx to the
# merge's per-slot rule over child writes, SetPerms, Zeros and unmaps,
# seeded with the unbacked-mapping case, one child history per mask test
# of the adoption check, and one history it must adopt. The seed corpora also
# run as plain tests under `make test`; this target is what mutates
# them. A crasher is written to the package's testdata/fuzz and fails
# every later `go test` until fixed.
# Minimization is capped per input: the image seeds are tens of KiB, and
# the default minute per interesting input would eat the whole window.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 20x
fuzz-smoke:
	$(FUZZ) -fuzz FuzzDecodeBlob ./internal/castore
	$(FUZZ) -fuzz FuzzParseNode ./internal/castore
	$(FUZZ) -fuzz FuzzDecodeForest ./internal/vm
	$(FUZZ) -fuzz FuzzUnchunkForest ./internal/vm
	$(FUZZ) -fuzz FuzzMergeRule ./internal/vm
	$(FUZZ) -fuzz FuzzRestore ./internal/kernel
	$(FUZZ) -fuzz FuzzDecodeImage .
	$(FUZZ) -fuzz FuzzDecodeManifest .
	$(FUZZ) -fuzz FuzzDecodeManifest ./internal/detmake
	$(FUZZ) -fuzz FuzzTaskMessage ./internal/detmake
	$(FUZZ) -fuzz FuzzAttach ./internal/fs
	$(FUZZ) -fuzz FuzzRefValue ./internal/castore
	$(FUZZ) -fuzz FuzzBuildFile ./cmd/detmake
	$(FUZZ) -fuzz FuzzTraceUnmarshal ./internal/trace

# Full-size experiment tables (slow); see also `go run ./cmd/detbench`.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# One iteration of the root micro-benchmarks: proves `go test -bench` still
# builds, the detbench harness still runs under testing.B (Figure 4), the
# dsched round engine still completes its blocked-heavy workload, and a
# fork → write → join still runs at 1, 16 and 256 dirty pages, and at one
# dirty page of a table the parent backs whole — the join walk's worst
# case (MergeDirtyPages, with B/op: time a vm or kernel change with
# -benchtime 2000x, where the frame pool makes a steady-state op allocate
# a few hundred bytes), and a fork → join of one thread
# (ForkJoinThread, with allocs/op): a thread's space keeps its goroutine
# from one start to the next, so the benchmark fails itself if the
# process holds more goroutines after b.N fork/joins than after the
# first — at 1x a smoke run; time it, with the guard over many
# fork/joins, at -benchtime 2000x (the tier-1
# TestRestartedChildKeepsItsGoroutine pins the reuse itself), and fft
# on Determinator and on its goroutine twin (DetFFT, BaseFFT, with
# allocs/op), so the log shows a program's own host buffers costing both
# sides alike.
# What the tables this target used to smoke-test assert now lives in
# package tests and the two goldens (`make test`, `make bench-exact`).
# Then one iteration of vm's typed-access benchmark, which fails itself
# if any of its variants allocates: the words move in place, and of the
# root-sharing walk's fork and snapshot (CopyAllFrom, Snapshot). Then the
# strided column load beside the scalar loop it stands for, the same
# typed loads and stores through a root space's Env (which fails itself
# if one allocates), a machine's whole life from New to Wait (with B/op:
# a machine after the first draws its pages and tables from the depot
# the one before released them to), and the
# micro-benchmarks under a build's host cost — fs.Checksum over a sparse
# image, the whole-table scans of a task image and a full one, one
# WriteFile of a new file and of an overwrite at depth 1 and 4, the chunk
# codec on either side of its size floor — and one cold and one warm
# build of detmake's benchmark graphs, alone and as the five-shape pass
# the end-to-end make_* workloads time, with what marshalling a task's
# inputs or outputs across the space boundary costs beside them. Then
# internal/serve's BenchmarkServe/{hot,evict}: one open-run-close op
# through an in-process server with every session resident and with one
# machine for two clients — serve_hot and serve_evict minus the HTTP,
# reporting evictions/op; time a serve change with that one (-benchtime
# 300x) before claiming it with `go run ./benchmark`.
bench-smoke:
	$(GO) test -bench='Fig4|DschedRound|MergeDirtyPages|ForkJoinThread|DetFFT|BaseFFT' -benchtime=1x -run='^$$' .
	$(GO) test -bench='TypedAccess|CopyAllFrom|Snapshot' -benchtime=1x -run='^$$' ./internal/vm
	$(GO) test -bench='ReadU32Stride|EnvTypedAccess|MachineLifecycle' -benchtime=1x -run='^$$' ./internal/kernel
	$(GO) test -bench='Checksum|Scan|WriteFile' -benchtime=1x -run='^$$' ./internal/fs
	$(GO) test -bench=EncodeBlob -benchtime=1x -run='^$$' ./internal/castore
	$(GO) test -bench='Build|TaskMessage' -benchtime=1x -run='^$$' ./internal/detmake
	$(GO) test -bench=Serve -benchtime=1x -run='^$$' ./internal/serve

# The exact gate: the end-to-end benchmark's 14 deterministic per-layer
# metrics (virtual times, instruction, round, page and byte counts) must
# equal the committed values. A change that moves one regenerates
# BENCH_EXACT.golden with the awk line below and says why.
bench-exact:
	$(GO) run ./benchmark -smoke | awk '$$NF == "exact" { print $$2, $$3 }' | diff BENCH_EXACT.golden -

# The code-size ratchet: product lines per component (tab3's "lines"
# column) must equal the committed values. Growth and shrinkage are both
# an edited TAB3.golden a reviewer sees; regenerate it with the pipeline
# below.
tab3:
	$(GO) run ./cmd/detbench -run tab3 | awk '$$NF ~ /^[0-9]+$$/ { n = $$(NF-2); NF -= 4; print $$0, n }' | diff TAB3.golden -

# The coverage census (docs/census.md): every product function outside
# benchmark/, cmd/ and examples/ is classed by the best of what reaches
# it — a workload (benchmark -smoke, detbench -quick, detlint over the
# module, the seven examples, all built with -cover), another package's
# tests, only its own package's tests, or nothing. The target fails if
# anything is reached by nothing, if the own-tests-only list differs from
# the committed docs/census.txt, or if an entry of that list has no
# sentence in docs/census.md: a mechanism without a caller is an edited
# file a reviewer sees, the way TAB3.golden shows growth. Regenerate the
# list with `sed -n 's/^1 //p' .census/classes > docs/census.txt`.
CENSUS = .census
census:
	@rm -rf $(CENSUS) && mkdir -p $(CENSUS)/bin $(CENSUS)/cov
	$(GO) build -cover -coverpkg=./... -o $(CENSUS)/bin/ ./benchmark ./cmd/detbench ./cmd/detlint ./examples/...
	@for w in "benchmark -smoke" "detbench -quick" "detlint ./..." $$(ls examples); do \
		echo "census: $$w"; \
		GOCOVERDIR=$(CENSUS)/cov $(CENSUS)/bin/$$w > $(CENSUS)/log 2>&1 || { cat $(CENSUS)/log; exit 1; }; \
	done
	@$(GO) tool covdata textfmt -i=$(CENSUS)/cov -o $(CENSUS)/cov.txt
	@$(GO) tool cover -func=$(CENSUS)/cov.txt | sed 's|^|- |' > $(CENSUS)/funcs
	@for p in $$($(GO) list ./...); do \
		rm -f $(CENSUS)/cov.txt; \
		$(GO) test -coverpkg=./... -coverprofile=$(CENSUS)/cov.txt $$p > $(CENSUS)/log 2>&1 || { cat $(CENSUS)/log; exit 1; }; \
		if [ -s $(CENSUS)/cov.txt ]; then $(GO) tool cover -func=$(CENSUS)/cov.txt | sed "s|^|$$p |" >> $(CENSUS)/funcs; fi; \
	done
	@awk -f docs/census.awk $(CENSUS)/funcs | sort > $(CENSUS)/classes
	@awk '{ n[$$1]++ } END { printf "census: %d functions, reached by: a workload %d, another package tests %d, own package tests only %d, nothing %d\n", NR, n[3], n[2], n[1], n[0] }' $(CENSUS)/classes
	@if grep '^0 ' $(CENSUS)/classes; then echo "census: reached by nothing: call it, test it or delete it"; exit 1; fi
	@sed -n 's/^1 //p' $(CENSUS)/classes | diff docs/census.txt -
	@while read -r e; do grep -qF "\`$$e\`" docs/census.md || { echo "census: docs/census.md has no sentence for $$e"; exit 1; }; done < docs/census.txt

# Every surviving detbench table plus tab3 as JSON. All of it is exact:
# two runs of one commit are byte-identical.
bench-json:
	$(GO) run ./cmd/detbench -quick -json > $(BENCH_OUT)

# Mirrors the pinned CI job; requires staticcheck on PATH
# (go install honnef.co/go/tools/cmd/staticcheck@2025.1).
staticcheck:
	staticcheck ./...

# The determinism analyzers (internal/detlint): maporder, walltime,
# globalmut, goroutinepool, errcmp. Exits nonzero on any finding not
# covered by a justified //detlint:allow — see docs/determinism-rules.md.
detlint:
	$(GO) run ./cmd/detlint ./...

ci: build vet fmt-check detlint test race fuzz-smoke bench-smoke bench-exact tab3 census bench-json
	@if command -v staticcheck >/dev/null 2>&1; then \
		$(MAKE) staticcheck; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned job)"; \
	fi
