package detmake

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/castore"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Address-space layout of a build. The master image is the build
// tree's committed truth; the stage region is per-task scratch in the
// root space, reused between tasks and waves.
const (
	// masterBase holds the committed build tree (sources + outputs of
	// committed waves) in the root space.
	masterBase vm.Addr = fs.DefaultBase
	// stageBase is where the root assembles each task's hermetic input
	// image; the kernel Put copies it to the same address in the child,
	// so fork-time offsets match exactly. Every task of a wave is staged
	// and Put before the first is collected, so the region is free again
	// by then, and a finished child's image is Get-copied back to it for
	// the root to read the status report and the declared outputs out
	// of. Same address both ways: a copy that covers whole page tables
	// shares them instead of copying their entries.
	stageBase vm.Addr = 0xA000_0000

	// statusPath is the reserved control file a task writes its outcome
	// into before halting (same '#' convention as uproc's console files).
	statusPath = "#detmake-status"
)

// Defaults for Config's zero values.
const (
	DefaultJobs         = 8
	DefaultTaskFSSize   = uint64(4 << 20)
	DefaultMasterFSSize = fs.DefaultSize
)

// Config describes one build.
type Config struct {
	Graph   *Graph
	Actions *Actions          // nil means DefaultActions()
	Sources map[string][]byte // initial tree contents by path

	// Store and Index form the build cache. A nil Store disables
	// caching (every task executes); a nil Index with a non-nil Store
	// gets a fresh MemIndex, which still dedups within the build.
	Store castore.BlobStore
	Index ActionIndex

	// Jobs is the modeled CPU count tasks of one wave share
	// (kernel.Config.CPUsPerNode). Build results are bit-identical at
	// every setting; only virtual time (the modeled makespan) varies.
	Jobs int

	TaskFSSize   uint64 // hermetic image size per task
	MasterFSSize uint64 // master image size
}

// TaskResult is the per-task outcome of a build, reported in sorted
// task-ID order.
type TaskResult struct {
	ID       string
	CacheHit bool   // result fetched (and hash-verified) from the store
	Fallback string // non-empty: a cached result was rejected ("chunk-hash", ...) and the task re-executed
	OutBytes int64  // total declared-output bytes
}

// Stats summarizes a build.
type Stats struct {
	Tasks     int
	Waves     int
	Executed  int // tasks that ran in a child space
	CacheHits int
	Fallbacks int   // rejected cache entries (counted under Executed too)
	Fetched   int64 // bytes fetched from the store on hits
	Stored    int64 // new chunk bytes written to the store
}

// Result is a completed (or aborted) build. On error the Result still
// describes the committed state: waves commit atomically at quiescent
// points, so a failed build's tree holds every wave before the failure
// and nothing of the failing wave — never a half-visible output.
type Result struct {
	Stats      Stats
	Tasks      []TaskResult
	Outputs    map[string][]byte // every declared output committed so far
	TreeDigest castore.Key       // content hash of the final tree (sorted path+bytes)
	Checksum   uint64            // fs.Checksum of the master image
	VT         int64             // root space virtual time (modeled makespan)
}

// Build runs the DAG to completion: deterministic wave order, hermetic
// per-task spaces, declared outputs read back from each task's own
// image, atomic commits at quiescent points, and content-addressed
// caching of every task result.
func Build(cfg Config) (Result, error) {
	if cfg.Graph == nil {
		return Result{}, fmt.Errorf("%w: nil graph", ErrBadTask)
	}
	if cfg.Actions == nil {
		cfg.Actions = DefaultActions()
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = DefaultJobs
	}
	if cfg.TaskFSSize == 0 {
		cfg.TaskFSSize = DefaultTaskFSSize
	}
	if cfg.MasterFSSize == 0 {
		cfg.MasterFSSize = DefaultMasterFSSize
	}
	if cfg.Store != nil && cfg.Index == nil {
		cfg.Index = NewMemIndex()
	}
	sources := make(map[string]bool, len(cfg.Sources))
	for p := range cfg.Sources {
		sources[p] = true
	}
	for _, t := range cfg.Graph.Tasks() {
		if _, ok := cfg.Actions.Lookup(t.Action); !ok {
			return Result{}, fmt.Errorf("%w: %q (task %s)", ErrUnknownAction, t.Action, t.ID)
		}
		for _, out := range t.Outputs {
			if sources[out] {
				return Result{}, fmt.Errorf("%w: task %s output %q is also a source", ErrBadTask, t.ID, out)
			}
		}
	}
	plan, err := cfg.Graph.Plan(sources)
	if err != nil {
		return Result{}, err
	}
	if err := checkOverlap(cfg.Graph, cfg.Sources, plan.Producer); err != nil {
		return Result{}, err
	}

	b := &builder{cfg: cfg, plan: plan, tree: make(map[string][]byte), treeHash: make(map[string]castore.Key)}
	res := kernel.New(kernel.Config{CPUsPerNode: cfg.Jobs}).Run(b.run, 0)
	out := b.finish(res.VT)
	if b.err != nil {
		return out, b.err
	}
	if res.Status != kernel.StatusHalted {
		return out, fmt.Errorf("detmake: build machine stopped %v: %w", res.Status, res.Err)
	}
	return out, nil
}

// builder is the root program of one build.
type builder struct {
	cfg  Config
	plan *Plan

	// tree mirrors the master replica's committed file contents; the
	// image remains the deterministic truth (its checksum is asserted
	// bit-equal cold vs warm), the mirror serves staging and hashing.
	tree map[string][]byte
	// treeHash memoizes content keys by path. A path's bytes are set
	// once — a source, or the output of its one producer — so an entry
	// never goes stale; storeResult seeds an executed task's outputs a
	// wave ahead of their commit, and nothing asks for a path that has
	// not been committed.
	treeHash map[string]castore.Key

	stats         Stats
	results       []TaskResult
	finalChecksum uint64
	err           error
}

func (b *builder) fail(err error) { b.err = err }

func (b *builder) hashOf(p string) castore.Key {
	k, ok := b.treeHash[p]
	if !ok {
		k = castore.KeyOf(b.tree[p])
		b.treeHash[p] = k
	}
	return k
}

// run executes the build inside the machine's root space. Whatever
// happens, the result carries the checksum of the master as the build
// left it: a failed build's covers exactly the sources and waves that
// committed before the failure.
func (b *builder) run(env *kernel.Env) {
	master := fs.Format(env, masterBase, b.cfg.MasterFSSize)
	ret := uint64(1)
	if b.build(env, master) {
		ret = 0
	}
	b.finalChecksum = master.Checksum()
	env.SetRet(ret)
}

// build writes the sources into the master and runs the waves in order,
// stopping (with b.err set) at the first failure.
func (b *builder) build(env *kernel.Env, master *fs.FS) bool {
	cfg := b.cfg
	for _, p := range sortedPaths(cfg.Sources) {
		if err := writeAll(master, p, cfg.Sources[p]); err != nil {
			b.fail(fmt.Errorf("detmake: writing source %q: %w", p, err))
			return false
		}
		b.tree[p] = cfg.Sources[p]
	}
	for _, wave := range b.plan.Waves {
		b.stats.Waves++
		if !b.runWave(env, master, wave) {
			return false
		}
	}
	return true
}

// runWave takes one wave from ready to committed. It returns false on
// failure, always before the wave's commit — the master never holds a
// partial wave.
func (b *builder) runWave(env *kernel.Env, master *fs.FS, wave []*Task) bool {
	cfg := b.cfg
	keys := make(map[string]castore.Key, len(wave))
	waveOut := make(map[string]map[string][]byte, len(wave))
	taskRes := make(map[string]*TaskResult, len(wave))
	var cold []*Task
	for _, t := range wave {
		b.stats.Tasks++
		tr := &TaskResult{ID: t.ID}
		taskRes[t.ID] = tr
		for _, in := range t.Inputs {
			b.hashOf(in) // memoize so actionKey sees every input hash
		}
		key := actionKey(t, b.treeHash, cfg.TaskFSSize)
		keys[t.ID] = key
		if cfg.Store == nil {
			cold = append(cold, t)
			continue
		}
		out, fetched, ok, err := fetchResult(cfg.Store, cfg.Index, key)
		switch {
		case ok:
			tr.CacheHit = true
			b.stats.CacheHits++
			b.stats.Fetched += fetched
			waveOut[t.ID] = out
		case err != nil:
			// A recorded result that fails verification is rejected
			// typed and re-executed — never silently reused.
			tr.Fallback = classifyFallback(err)
			b.stats.Fallbacks++
			cold = append(cold, t)
		default:
			cold = append(cold, t)
		}
	}

	if len(cold) > 0 {
		treeSnap := make(map[string]bool, len(b.tree))
		for p := range b.tree {
			treeSnap[p] = true
		}
		refs := make([]uint64, len(cold))
		for i, t := range cold {
			if err := b.stage(env, t); err != nil {
				b.fail(err)
				return false
			}
			refs[i] = uint64(i + 1)
			err := env.Put(refs[i], kernel.PutOpts{
				Regs:  &kernel.Regs{Entry: b.taskEntry(t, treeSnap)},
				Copy:  &kernel.CopyRange{Src: stageBase, Dst: stageBase, Size: cfg.TaskFSSize},
				Start: true,
			})
			if err != nil {
				b.fail(fmt.Errorf("detmake: forking task %s: %w", t.ID, err))
				return false
			}
		}

		// Collect in task-ID order; each collect's Get waits for its task
		// to halt.
		for i, t := range cold {
			out, err := b.collect(env, refs[i], t)
			if err != nil {
				b.fail(err)
				return false
			}
			waveOut[t.ID] = out
			b.stats.Executed++
			if cfg.Store != nil {
				stored, err := b.storeTask(t, keys[t.ID], out, taskRes[t.ID].Fallback != "")
				if err != nil {
					b.fail(fmt.Errorf("detmake: caching task %s: %w", t.ID, err))
					return false
				}
				b.stats.Stored += stored
			}
		}
	}

	// Commit at the quiescent point, in task-ID order (wave order),
	// declared-output order within a task. Cold and warm builds issue
	// the exact same master writes here, which is what makes the final
	// image checksum bit-equal between them.
	for _, t := range wave {
		out := waveOut[t.ID]
		tr := taskRes[t.ID]
		for _, p := range t.Outputs {
			body := out[p]
			if err := writeAll(master, p, body); err != nil {
				b.fail(fmt.Errorf("detmake: committing %q (task %s): %w", p, t.ID, err))
				return false
			}
			b.tree[p] = body
			tr.OutBytes += int64(len(body))
		}
		b.results = append(b.results, *tr)
	}
	return true
}

// stage builds the hermetic input image for one task at stageBase.
func (b *builder) stage(env *kernel.Env, t *Task) error {
	img := fs.Format(env, stageBase, b.cfg.TaskFSSize)
	ins := append([]string{}, t.Inputs...)
	sort.Strings(ins)
	for _, in := range ins {
		if err := writeAll(img, in, b.tree[in]); err != nil {
			return fmt.Errorf("detmake: staging input %q for task %s: %w", in, t.ID, err)
		}
	}
	return nil
}

// taskEntry is the child-space program of one task: attach the
// hermetic image, run the action, and report through the status file.
func (b *builder) taskEntry(t *Task, treeSnap map[string]bool) func(*kernel.Env) {
	size := b.cfg.TaskFSSize
	action, _ := b.cfg.Actions.Lookup(t.Action)
	inputs := make(map[string]bool, len(t.Inputs))
	for _, p := range t.Inputs {
		inputs[p] = true
	}
	return func(env *kernel.Env) {
		img, err := fs.Attach(env, stageBase, size)
		if err != nil {
			panic(err) // hermetic image corrupt: fault the space
		}
		ctx := &TaskCtx{task: t, img: img, env: env, inputs: inputs, tree: treeSnap}
		actErr := runAction(action, ctx)

		status := "ok"
		ret := uint64(0)
		switch {
		case ctx.violation != nil:
			status, ret = "undeclared "+ctx.violation.Path, 1
		case actErr != nil && errors.Is(actErr, fs.ErrNoSpace):
			status, ret = "nospace "+actErr.Error(), 1
		case actErr != nil:
			status, ret = "err "+actErr.Error(), 1
		}
		if ret != 0 {
			// Nothing a failed task wrote is read back, so drop it all:
			// that is what guarantees room for the status report even
			// after ErrNoSpace.
			for _, info := range img.List() {
				if !info.Dir && !inputs[info.Name] {
					_ = img.Unlink(info.Name)
				}
			}
		}
		if err := img.WriteFile(statusPath, []byte(status)); err != nil {
			panic(err) // cannot even report: fault the space
		}
		env.SetRet(ret)
	}
}

// runAction invokes the action body, converting a panic into an error
// so one bad action fails its task, not the build machine.
func runAction(action ActionFunc, ctx *TaskCtx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("action panicked: %v", r)
		}
	}()
	return action(ctx)
}

// collect pulls one finished child image back into the stage region,
// checks its status, and reads the declared outputs out of it. Whatever
// else the task left in its image is scratch and is never looked at.
func (b *builder) collect(env *kernel.Env, ref uint64, t *Task) (map[string][]byte, error) {
	size := b.cfg.TaskFSSize
	info, err := env.Get(ref, kernel.GetOpts{
		Regs: true,
		Copy: &kernel.CopyRange{Src: stageBase, Dst: stageBase, Size: size},
	})
	if err != nil {
		return nil, fmt.Errorf("detmake: collecting task %s: %w", t.ID, err)
	}
	if info.Status != kernel.StatusHalted {
		return nil, &TaskError{Task: t.ID, Err: fmt.Errorf("space stopped %v: %v", info.Status, info.Err)}
	}
	img, err := fs.Attach(env, stageBase, size)
	if err != nil {
		return nil, &TaskError{Task: t.ID, Err: fmt.Errorf("result image corrupt: %w", err)}
	}
	raw, err := img.ReadFile(statusPath)
	if err != nil {
		return nil, &TaskError{Task: t.ID, Err: fmt.Errorf("no status report: %w", err)}
	}
	status := string(raw)
	switch {
	case status == "ok":
	case strings.HasPrefix(status, "undeclared "):
		return nil, &UndeclaredInputError{Task: t.ID, Path: strings.TrimPrefix(status, "undeclared ")}
	case strings.HasPrefix(status, "nospace "):
		return nil, &TaskError{Task: t.ID,
			Err: fmt.Errorf("%s: %w", strings.TrimPrefix(status, "nospace "), fs.ErrNoSpace)}
	default:
		return nil, &TaskError{Task: t.ID, Err: errors.New(strings.TrimPrefix(status, "err "))}
	}

	out := make(map[string][]byte, len(t.Outputs))
	for _, p := range t.Outputs {
		body, err := img.ReadFile(p)
		if err != nil {
			if errors.Is(err, fs.ErrNotFound) {
				return nil, &MissingOutputError{Task: t.ID, Path: p}
			}
			return nil, &TaskError{Task: t.ID, Err: err}
		}
		out[p] = body
	}
	return out, nil
}

// checkOverlap rejects declared paths that cannot coexist in one tree:
// an output that is a directory of, or lies beneath, a source or another
// declared output. Left to run, such a pair surfaces as an fs error in
// the middle of a wave's commit, after sibling outputs have already
// reached the master. Task pairs are reported as *OutputConflictError at
// the path that would have to be both file and directory.
func checkOverlap(g *Graph, sources map[string][]byte, producer map[string]string) error {
	for _, t := range g.Tasks() {
		for _, out := range t.Outputs {
			for dir := parentDir(out); dir != ""; dir = parentDir(dir) {
				if _, ok := sources[dir]; ok {
					return fmt.Errorf("%w: task %s output %q lies beneath source file %q", ErrBadTask, t.ID, out, dir)
				}
				if other, ok := producer[dir]; ok {
					return &OutputConflictError{Path: dir, Tasks: sortedPair(other, t.ID)}
				}
			}
		}
	}
	for _, src := range sortedPaths(sources) {
		for dir := parentDir(src); dir != ""; dir = parentDir(dir) {
			if id, ok := producer[dir]; ok {
				return fmt.Errorf("%w: task %s output %q is a directory of source %q", ErrBadTask, id, dir, src)
			}
		}
	}
	return nil
}

func parentDir(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return ""
	}
	return p[:i]
}

// storeTask records one executed task's result in the cache. heal
// marks a task whose previous cache entry was rejected: its chunks are
// rewritten rather than deduplicated against the damaged stored form.
func (b *builder) storeTask(t *Task, key castore.Key, out map[string][]byte, heal bool) (int64, error) {
	man, stored, err := storeResult(b.cfg.Store, key, t.Outputs, out, b.treeHash, 0, heal)
	if err != nil {
		return stored, err
	}
	return stored, b.cfg.Index.Record(key, man)
}

// classifyFallback names the typed rejection that forced re-execution.
func classifyFallback(err error) string {
	var hashErr *castore.ChunkHashError
	var missErr *castore.ChunkMissingError
	var nodeErr *castore.NodeFormatError
	switch {
	case errors.As(err, &hashErr):
		return "chunk-hash"
	case errors.As(err, &missErr):
		return "chunk-missing"
	case errors.As(err, &nodeErr):
		return "node-format"
	default:
		return "index-error"
	}
}

// writeAll writes path (creating parent directories) into f.
func writeAll(f *fs.FS, path string, b []byte) error {
	if err := mkdirAll(f, path); err != nil {
		return err
	}
	return f.WriteFile(path, b)
}

// finish assembles the Result after the machine has halted.
func (b *builder) finish(vt int64) Result {
	res := Result{
		Stats:   b.stats,
		Tasks:   b.results,
		Outputs: make(map[string][]byte),
		VT:      vt,
	}
	sort.Slice(res.Tasks, func(i, j int) bool { return res.Tasks[i].ID < res.Tasks[j].ID })
	for _, t := range b.cfg.Graph.Tasks() {
		for _, p := range t.Outputs {
			if body, ok := b.tree[p]; ok {
				res.Outputs[p] = body
			}
		}
	}
	res.TreeDigest = b.treeDigest()
	res.Checksum = b.finalChecksum
	return res
}

// sortedPaths returns a tree's paths in sorted order.
func sortedPaths(tree map[string][]byte) []string {
	paths := make([]string, 0, len(tree))
	for p := range tree {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// treeDigest hashes the whole tree: sorted paths, each with its content
// key.
func (b *builder) treeDigest() castore.Key {
	var buf []byte
	for _, p := range sortedPaths(b.tree) {
		buf = append(buf, p...)
		buf = append(buf, 0)
		k := b.hashOf(p)
		buf = append(buf, k[:]...)
	}
	return castore.KeyOf(buf)
}
