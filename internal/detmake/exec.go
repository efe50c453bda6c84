package detmake

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/castore"
	"repro/internal/fs"
	"repro/internal/imgenc"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Address-space layout of a build. The master image is the build
// tree's committed truth; a task's state crosses the space boundary at
// stageBase, as one flat message each way.
const (
	// masterBase holds the committed build tree (sources + outputs of
	// committed waves) in the root space.
	masterBase vm.Addr = fs.DefaultBase
	// stageBase is the one address a child keeps anything at: the input
	// message until its prologue has read it, then the hermetic image the
	// prologue formats over it, then — the image's head overwritten — the
	// result message. In the root it holds whatever the task collected
	// last left there, its whole region: a Get between equal addresses
	// that covers whole page tables shares them instead of copying their
	// entries, and the root, which only ever reads there, never breaks
	// the share.
	stageBase vm.Addr = 0xA000_0000
	// outBase is where the root, and only the root, writes: each input
	// message in turn, whose pages Put copies to stageBase in the child.
	outBase vm.Addr = 0xB000_0000
)

// DefaultJobs is what a zero Config.Jobs means. Every task's hermetic
// image is DefaultTaskFSSize bytes, a size every action key hashes (it
// bounds what executions can succeed), and the master image is
// DefaultMasterFSSize.
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
	// caching (every task executes); a nil Index is the Store's own
	// refs under actions/, which is what every caller but the frozen
	// benchmark/ wants.
	Store castore.BlobStore
	Index ActionIndex

	// Jobs is the modeled CPU count tasks of one wave share
	// (kernel.Config.CPUsPerNode). Build results are bit-identical at
	// every setting; only virtual time (the modeled makespan) varies.
	Jobs int
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
	if cfg.Store != nil && cfg.Index == nil {
		cfg.Index = refIndex{cfg.Store, actionsDir}
	}
	sources := make(map[string]bool, len(cfg.Sources))
	for p := range cfg.Sources {
		if err := checkPath("Config.Sources", p); err != nil {
			return Result{}, err
		}
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
	master := fs.Format(env, masterBase, DefaultMasterFSSize)
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
		if err := master.WriteFileAll(p, cfg.Sources[p]); err != nil {
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
		key := actionKey(t, b.treeHash, DefaultTaskFSSize)
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
			n, pages := b.stage(env, t)
			refs[i] = uint64(i + 1)
			err := env.Put(refs[i], kernel.PutOpts{
				Regs:  &kernel.Regs{Entry: b.taskEntry(t, treeSnap), Arg: n},
				Copy:  pages,
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
			if err := master.WriteFileAll(p, body); err != nil {
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

// taskFile is one entry of a message's file list.
type taskFile struct {
	Path string
	Body []byte
}

// A task's inputs and its outputs cross the space boundary in one
// format: a u32 word, a u32 count, then that many (path, bytes) pairs,
// each half u32-length-prefixed. Down, the word is outcomeOK and the
// list is the declared inputs in sorted path order. Up, the word is the
// task's outcome and the list is the declared outputs in declared order
// or, for a failure, one entry whose path field carries the path or
// message of the typed error. A message's length travels beside it in a
// register (Arg down, Ret up), not in it.
const (
	outcomeOK         uint32 = iota
	outcomeUndeclared        // the path read
	outcomeNoSpace           // the action's error
	outcomeErr               // the action's error
	outcomeMissing           // the declared output never written
)

// encodeMessage is the one encoder. It sizes the message before writing
// it, so the buffer is allocated once.
func encodeMessage(word uint32, files []taskFile) []byte {
	n := 8
	for _, f := range files {
		n += 8 + len(f.Path) + len(f.Body)
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, n), word)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(files)))
	for _, f := range files {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Path)))
		b = append(b, f.Path...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Body)))
		b = append(b, f.Body...)
	}
	return b
}

// decodeMessage is the one decoder. Bodies alias msg; the count is
// bounded by the bytes that are left, two length prefixes to a pair, so
// the list can be sized by it.
func decodeMessage(msg []byte) (word uint32, files []taskFile, err error) {
	r := &imgenc.Reader{B: msg, Wrap: func(off int, what string) error {
		return fmt.Errorf("byte %d: %s", off, what)
	}}
	word = r.U32()
	n := r.Count(8, "file")
	files = make([]taskFile, 0, n)
	for ; n > 0 && r.Err == nil; n-- {
		files = append(files, taskFile{Path: r.Str(), Body: r.Bytes()})
	}
	return word, files, r.Done()
}

// decodeResult parses the result message task t left: its declared
// outputs by path, or the typed failure it reported. The child is
// untrusted, so anything but a well-formed message saying exactly what
// t declared is a *TaskError.
func decodeResult(t *Task, msg []byte) (map[string][]byte, error) {
	corrupt := func(format string, args ...any) (map[string][]byte, error) {
		return nil, &TaskError{Task: t.ID, Err: fmt.Errorf("result message corrupt: "+format, args...)}
	}
	outcome, files, err := decodeMessage(msg)
	switch {
	case err != nil:
		return corrupt("%v", err)
	case outcome == outcomeOK && len(files) == len(t.Outputs):
		out := make(map[string][]byte, len(files))
		for i, f := range files {
			if f.Path != t.Outputs[i] {
				// Quoted 64 bytes deep: %q can quadruple what it quotes,
				// and the child chose the first path.
				return corrupt("output %d is %.64q, declared %.64q", i, f.Path, t.Outputs[i])
			}
			out[f.Path] = f.Body
		}
		return out, nil
	case outcome == outcomeOK || len(files) != 1:
		return corrupt("outcome %d with %d files, %d outputs declared", outcome, len(files), len(t.Outputs))
	}
	switch detail := files[0].Path; outcome {
	case outcomeUndeclared:
		return nil, &UndeclaredInputError{Task: t.ID, Path: detail}
	case outcomeNoSpace:
		return nil, &TaskError{Task: t.ID, Err: fmt.Errorf("%s: %w", detail, fs.ErrNoSpace)}
	case outcomeErr:
		return nil, &TaskError{Task: t.ID, Err: errors.New(detail)}
	case outcomeMissing:
		return nil, &MissingOutputError{Task: t.ID, Path: detail}
	}
	return corrupt("unknown outcome %d", outcome)
}

// stage writes task t's input message at outBase and returns its length
// and the pages a Put must copy to stageBase in the child. The pages are
// zeroed first because Put copies whole pages: the tail of the last one
// would otherwise hand the child the end of a sibling's message.
func (b *builder) stage(env *kernel.Env, t *Task) (uint64, *kernel.CopyRange) {
	ins := append([]string{}, t.Inputs...)
	sort.Strings(ins)
	files := make([]taskFile, len(ins))
	for i, in := range ins {
		files[i] = taskFile{Path: in, Body: b.tree[in]}
	}
	msg := encodeMessage(outcomeOK, files)
	pages := (uint64(len(msg)) + vm.PageSize - 1) &^ (vm.PageSize - 1)
	env.Zero(outBase, pages, vm.PermRW)
	env.Write(outBase, msg)
	return uint64(len(msg)), &kernel.CopyRange{Src: outBase, Dst: stageBase, Size: pages}
}

// taskEntry is the child-space program of one task. Its prologue reads
// the input message (Arg bytes at stageBase) and formats the task's own
// image over it; its epilogue reads the declared outputs back through the
// same handle and leaves the result message at stageBase, its length in
// Ret. The image is dead by then, so the message goes over its head:
// there is always room to report, even after ErrNoSpace. The action in
// between sees what it always saw, a real image holding exactly its
// inputs.
func (b *builder) taskEntry(t *Task, treeSnap map[string]bool) func(*kernel.Env) {
	const size = DefaultTaskFSSize
	action, _ := b.cfg.Actions.Lookup(t.Action)
	inputs := make(map[string]bool, len(t.Inputs))
	for _, p := range t.Inputs {
		inputs[p] = true
	}
	return func(env *kernel.Env) {
		raw := make([]byte, env.Arg())
		env.Read(stageBase, raw)
		_, files, err := decodeMessage(raw)
		if err != nil {
			panic(err) // the root's own message is damaged: fault the space
		}
		ctx := &TaskCtx{task: t, img: fs.Format(env, stageBase, size), env: env, inputs: inputs, tree: treeSnap}
		msg := resultMessage(ctx, runAction(action, ctx, files))
		env.Write(stageBase, msg)
		env.SetRet(uint64(len(msg)))
	}
}

// runAction writes the declared inputs into the task's image and invokes
// the action body, converting a panic into an error so one bad action
// fails its task, not the build machine.
func runAction(action ActionFunc, ctx *TaskCtx, inputs []taskFile) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("action panicked: %v", r)
		}
	}()
	for _, f := range inputs {
		if err := ctx.img.WriteFileAll(f.Path, f.Body); err != nil {
			return fmt.Errorf("staging input %q: %w", f.Path, err)
		}
	}
	return action(ctx)
}

// resultMessage encodes a finished task's outcome: the failure, or the
// declared outputs as the action left them in the image.
func resultMessage(ctx *TaskCtx, actErr error) []byte {
	fail := func(outcome uint32, detail string) []byte {
		return encodeMessage(outcome, []taskFile{{Path: detail}})
	}
	switch {
	case ctx.violation != nil:
		return fail(outcomeUndeclared, ctx.violation.Path)
	case errors.Is(actErr, fs.ErrNoSpace):
		return fail(outcomeNoSpace, actErr.Error())
	case actErr != nil:
		return fail(outcomeErr, actErr.Error())
	}
	files := make([]taskFile, len(ctx.task.Outputs))
	for i, p := range ctx.task.Outputs {
		body, err := ctx.img.ReadFile(p)
		switch {
		case errors.Is(err, fs.ErrNotFound):
			return fail(outcomeMissing, p)
		case err != nil:
			return fail(outcomeErr, err.Error())
		}
		files[i] = taskFile{Path: p, Body: body}
	}
	return encodeMessage(outcomeOK, files)
}

// collect shares one finished child's region back to stageBase and
// decodes the result message at its head. Whatever else the task left
// there is a dead image and is never looked at.
func (b *builder) collect(env *kernel.Env, ref uint64, t *Task) (map[string][]byte, error) {
	const size = DefaultTaskFSSize
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
	if info.Regs.Ret > size {
		return nil, &TaskError{Task: t.ID, Err: fmt.Errorf("result message corrupt: %d bytes in a %d-byte region", info.Regs.Ret, size)}
	}
	msg := make([]byte, info.Regs.Ret)
	env.Read(stageBase, msg)
	return decodeResult(t, msg)
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
	man, stored, err := storeResult(b.cfg.Store, key, t.Outputs, out, b.treeHash, heal)
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
