// Package detmake is a deterministic parallel build executor: the
// parmake workload of the paper's §5, grown into a real DAG build
// system over the Determinator kernel model.
//
// Each build task runs in a private child space holding a hermetic
// internal/fs image of exactly its declared inputs; its declared
// outputs are read back out of that image when it halts and committed
// at quiescent points between topological waves. Two tasks can never
// disagree about a committed path — every output has one declared
// writer, checked before anything runs — so nothing is merged.
// Because the kernel enforces determinism, a task's output bits are a
// pure function of (action, input tree) — so results are cacheable by
// construction: detmake keys every task result by a content hash of
// its action and input contents into an internal/castore, and a cache
// hit is provably bit-identical to cold execution (the property tests
// and detbench rows assert the final images checksum-equal).
//
// Dispatch order is deterministic everywhere: topological wave, then
// task-ID tiebreak, never map iteration order.
package detmake

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fs"
)

// Task is one node of the build DAG: a pure action over declared
// input paths producing declared output paths. Tasks are plain data —
// the action is named and resolved through an Actions registry — so a
// task is hashable into a cache key and loadable from a build file.
type Task struct {
	ID      string   // unique; the deterministic tiebreak key
	Action  string   // registry name of the action to run
	Args    []string // action arguments (hashed into the cache key)
	Inputs  []string // declared input paths (the hermetic view)
	Outputs []string // declared output paths (all must be written)
}

// Static graph errors.
var (
	ErrBadTask       = errors.New("detmake: invalid task")
	ErrUnknownAction = errors.New("detmake: unknown action")
)

// CycleError reports that the DAG has a dependency cycle. Tasks lists
// every task on a cycle (or depending on one), sorted by ID, so the
// report is deterministic.
type CycleError struct {
	Tasks []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("detmake: dependency cycle through tasks %s", strings.Join(e.Tasks, ", "))
}

// DuplicateOutputError reports two tasks declaring the same output
// path. Tasks holds the pair in sorted ID order — attribution is
// deterministic no matter the declaration order.
type DuplicateOutputError struct {
	Path  string
	Tasks [2]string
}

func (e *DuplicateOutputError) Error() string {
	return fmt.Sprintf("detmake: tasks %.64s and %.64s both declare output %.64q", e.Tasks[0], e.Tasks[1], e.Path)
}

// MissingInputError reports a declared input that no task produces and
// the source tree does not contain.
type MissingInputError struct {
	Task string
	Path string
}

func (e *MissingInputError) Error() string {
	return fmt.Sprintf("detmake: task %.64s input %.64q has no producer and is not a source", e.Task, e.Path)
}

// Graph is a validated set of tasks. Construction checks the static
// invariants that do not depend on the source tree: unique IDs, sane
// paths, and single-writer outputs.
type Graph struct {
	tasks []*Task          // sorted by ID
	byID  map[string]*Task // lookup only; all iteration goes via tasks
}

// NewGraph validates tasks and builds a graph. The duplicate-output
// check is the first half of conflict detection (Build's overlap check
// is the other; both are static): two tasks declaring the same output
// path conflict before anything runs, attributed to the sorted task
// pair. The tasks may come from a hostile build file, so an error names
// at most 64 bytes of an ID or path: %q can quadruple what it quotes.
func NewGraph(tasks []*Task) (*Graph, error) {
	g := &Graph{byID: make(map[string]*Task, len(tasks))}
	for _, t := range tasks {
		if t.ID == "" {
			return nil, fmt.Errorf("%w: empty task ID", ErrBadTask)
		}
		if _, dup := g.byID[t.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate task ID %.64q", ErrBadTask, t.ID)
		}
		if t.Action == "" {
			return nil, fmt.Errorf("%w: task %.64s has no action", ErrBadTask, t.ID)
		}
		if len(t.Outputs) == 0 {
			return nil, fmt.Errorf("%w: task %.64s declares no outputs", ErrBadTask, t.ID)
		}
		who := "task " + t.ID
		for _, p := range append(append([]string{}, t.Inputs...), t.Outputs...) {
			if err := checkPath(who, p); err != nil {
				return nil, err
			}
		}
		seen := make(map[string]bool, len(t.Inputs))
		for _, p := range t.Inputs {
			if seen[p] {
				return nil, fmt.Errorf("%w: task %.64s declares input %.64q twice", ErrBadTask, t.ID, p)
			}
			seen[p] = true
		}
		for _, p := range t.Outputs {
			if seen[p] {
				return nil, fmt.Errorf("%w: task %.64s declares %.64q as both input and output", ErrBadTask, t.ID, p)
			}
		}
		g.byID[t.ID] = t
		g.tasks = append(g.tasks, t)
	}
	sort.Slice(g.tasks, func(i, j int) bool { return g.tasks[i].ID < g.tasks[j].ID })

	producer := make(map[string]string, len(tasks))
	for _, t := range g.tasks { // sorted, so the reported pair is stable
		for _, out := range t.Outputs {
			if first, dup := producer[out]; dup {
				return nil, &DuplicateOutputError{Path: out, Tasks: sortedPair(first, t.ID)}
			}
			producer[out] = t.ID
		}
	}
	return g, nil
}

// sortedPair orders two task IDs, so a pair is attributed the same way
// whichever task was met first.
func sortedPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// checkPath enforces the path shape who (a task, or Config.Sources)
// may declare: relative, and made of components an fs image can hold —
// what fs.splitPath accepts, checked here so that a bad path is
// ErrBadTask before anything executes and not a task failing mid-build.
// Components starting with '#' are reserved for the runtime's control
// files (the same convention uproc uses for its console files).
func checkPath(who, p string) error {
	for _, c := range strings.Split(p, "/") {
		if c == "" || c == "." || c == ".." || c[0] == '#' || len(c) >= fs.MaxNameLen {
			return fmt.Errorf("%w: %.70s declares path %.64q: want relative, no component empty, \".\", \"..\", starting with '#' or of %d bytes or more",
				ErrBadTask, who, p, fs.MaxNameLen)
		}
	}
	return nil
}

// Tasks returns the tasks in sorted ID order.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Task looks a task up by ID.
func (g *Graph) Task(id string) (*Task, bool) {
	t, ok := g.byID[id]
	return t, ok
}

// Plan is the scheduled form of a graph against a concrete source
// tree: tasks grouped into topological waves, each wave sorted by ID.
// Every task in wave k depends only on sources and outputs of waves
// < k, so a wave's tasks are mutually independent and may run in
// parallel between two quiescent points.
type Plan struct {
	Waves    [][]*Task
	Producer map[string]string // output path -> producing task ID
}

// Plan schedules the graph over the given source paths. Inputs with no
// producer must appear in sources; cycles are reported typed.
func (g *Graph) Plan(sources map[string]bool) (*Plan, error) {
	producer := make(map[string]string, len(g.tasks))
	for _, t := range g.tasks {
		for _, out := range t.Outputs {
			producer[out] = t.ID
		}
	}
	// Level via longest-path over producer edges: level(t) = 1 + max
	// level of any producing task, memoized, with an explicit visiting
	// mark for cycle detection.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(g.tasks))
	level := make(map[string]int, len(g.tasks))
	var onCycle []string
	var visit func(t *Task) bool
	visit = func(t *Task) bool {
		switch state[t.ID] {
		case done:
			return true
		case visiting:
			return false // back edge: cycle
		}
		state[t.ID] = visiting
		lv := 0
		for _, in := range t.Inputs {
			pid, ok := producer[in]
			if !ok {
				continue // source (or missing: checked below)
			}
			if !visit(g.byID[pid]) {
				return false
			}
			if pl := level[pid]; pl+1 > lv {
				lv = pl + 1
			}
		}
		state[t.ID] = done
		level[t.ID] = lv
		return true
	}
	for _, t := range g.tasks {
		visit(t) // a false return leaves the chain marked, collected below
	}
	for _, t := range g.tasks {
		if state[t.ID] != done {
			onCycle = append(onCycle, t.ID)
		}
	}
	if len(onCycle) > 0 {
		sort.Strings(onCycle)
		return nil, &CycleError{Tasks: onCycle}
	}
	for _, t := range g.tasks {
		for _, in := range t.Inputs {
			if _, ok := producer[in]; !ok && !sources[in] {
				return nil, &MissingInputError{Task: t.ID, Path: in}
			}
		}
	}
	maxLv := 0
	for _, t := range g.tasks {
		if level[t.ID] > maxLv {
			maxLv = level[t.ID]
		}
	}
	waves := make([][]*Task, maxLv+1)
	for _, t := range g.tasks { // sorted by ID, so each wave is too
		waves[level[t.ID]] = append(waves[level[t.ID]], t)
	}
	return &Plan{Waves: waves, Producer: producer}, nil
}

// Cone returns the IDs of every task transitively downstream of any of
// the given paths — the set an incremental rebuild re-executes when
// exactly those inputs change. Sorted, deterministic.
func (g *Graph) Cone(changed ...string) []string {
	dirty := make(map[string]bool, len(changed))
	for _, p := range changed {
		dirty[p] = true
	}
	hit := make(map[string]bool)
	for {
		grew := false
		for _, t := range g.tasks {
			if hit[t.ID] {
				continue
			}
			for _, in := range t.Inputs {
				if dirty[in] {
					hit[t.ID] = true
					grew = true
					for _, out := range t.Outputs {
						dirty[out] = true
					}
					break
				}
			}
		}
		if !grew {
			break
		}
	}
	ids := make([]string, 0, len(hit))
	for _, t := range g.tasks { // sorted iteration, not map order
		if hit[t.ID] {
			ids = append(ids, t.ID)
		}
	}
	return ids
}
