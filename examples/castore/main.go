// Checkpoint/resume walkthrough over the content-addressed store: a
// phased parallel program is bound to a session, stepped a third of the
// way and suspended into an on-disk chunk store; a fresh session admits
// the manifest, steps on and suspends again, and the second save stores
// only the chunks the run actually changed — a chained incremental
// image. A third session finishes the chain bit-identically to the
// uninterrupted run, and the garbage collector shows that one ref of the
// store, pointing at the newest manifest, keeps the whole parent chain
// reachable.
//
//	go run ./examples/castore
package main

import (
	"fmt"
	"log"
	"os"

	repro "repro"
)

const (
	threads = 4
	phases  = 6
	words   = 1 << 14
)

// program is a phased map/reduce: every phase each thread perturbs its
// stripe of a shared array, and a running digest accumulates the
// per-thread sums. All cross-phase state lives in the shared region, so
// the program can be checkpointed at every barrier. Layout re-runs on
// resume to re-derive the addresses; Init runs only on fresh starts.
func program() repro.Program {
	var arr, digest repro.Addr
	return repro.Program{
		Phases: phases,
		Layout: func(rt *repro.RT) {
			arr = rt.Alloc(8*words, 8)
			digest = rt.Alloc(8, 8)
		},
		Init: func(rt *repro.RT) {
			for i := 0; i < words; i++ {
				rt.Env().WriteU64(arr+repro.Addr(8*i), uint64(i))
			}
			rt.Env().WriteU64(digest, 1)
		},
		Phase: func(rt *repro.RT, phase int) error {
			// The first two phases build the whole array; later phases
			// refine a 1/16th slice — so chained saves after phase 2
			// store only the pages those refinements dirty.
			span := words
			if phase >= 2 {
				span = words / 16
			}
			sums, err := rt.ParallelDo(threads, func(t *repro.Thread) uint64 {
				lo, hi := t.ID*span/threads, (t.ID+1)*span/threads
				var sum uint64
				for i := lo; i < hi; i++ {
					a := arr + repro.Addr(8*i)
					v := t.Env().ReadU64(a)*6364136223846793005 + uint64(phase) + 1
					t.Env().WriteU64(a, v)
					sum += v
				}
				return sum
			})
			if err != nil {
				return err
			}
			h := rt.Env().ReadU64(digest)
			for _, s := range sums {
				h = h*31 + s
			}
			rt.Env().WriteU64(digest, h)
			return nil
		},
		Result: func(rt *repro.RT) uint64 { return rt.Env().ReadU64(digest) },
	}
}

func main() {
	machine := repro.MachineConfig{CPUsPerNode: threads}
	session := func() *repro.Session {
		s, err := repro.NewSession(repro.WithMachine(machine))
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	// Reference: the uninterrupted run.
	want, err := session().RunProgram(program())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted: digest=%#x vt=%d\n", want.Ret, want.VT)

	dir, err := os.MkdirTemp("", "castore-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := repro.OpenDirStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Bind the program, run a third of the phases, and suspend the
	// machine into the store: the session keeps only the manifest.
	first := session()
	if err := first.Bind(program()); err != nil {
		log.Fatal(err)
	}
	if _, err := first.Step(2); err != nil {
		log.Fatal(err)
	}
	m1, err := first.Suspend(store)
	if err != nil {
		log.Fatal(err)
	}
	s1, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("save 1: manifest %s…  %d chunks, %d KiB unique, %d KiB on disk\n",
		m1.Key().String()[:12], s1.Chunks, s1.LogicalSize>>10, s1.StoredSize>>10)

	// A fresh session — in a real deployment, a fresh process that knows
	// only the manifest's key — admits the checkpoint, runs two more
	// phases and suspends again, chained onto the first manifest: only
	// the pages those phases dirtied are stored anew.
	mid := session()
	m1Again, err := repro.LoadManifest(store, m1.Key())
	if err != nil {
		log.Fatal(err)
	}
	if err := mid.BindSuspended(program(), store, m1Again); err != nil {
		log.Fatal(err)
	}
	if _, err := mid.Step(2); err != nil {
		log.Fatal(err)
	}
	m2, err := mid.Suspend(store)
	if err != nil {
		log.Fatal(err)
	}
	s2, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	parent, _ := m2.Parent()
	fmt.Printf("save 2: manifest %s… (seq %d, parent %s…)  +%d KiB unique, +%d KiB on disk\n",
		m2.Key().String()[:12], m2.Seq(), parent.String()[:12],
		(s2.LogicalSize-s1.LogicalSize)>>10, (s2.StoredSize-s1.StoredSize)>>10)

	// Finish the chained checkpoint in another fresh session (a fresh
	// program value too: no Go state crosses over): the result is
	// bit-identical to the uninterrupted run.
	last := session()
	if err := last.BindSuspended(program(), store, m2); err != nil {
		log.Fatal(err)
	}
	sr, err := last.Step(phases)
	if err != nil {
		log.Fatal(err)
	}
	got := sr.Result
	fmt.Printf("resumed:       digest=%#x vt=%d\n", got.Ret, got.VT)
	if !sr.Done || got.Ret != want.Ret || got.VT != want.VT || got.Insns != want.Insns {
		log.Fatal("resumed run diverged from the uninterrupted one")
	}

	// Name the newest manifest with a ref of the store and collect
	// garbage. The collector is handed no root: a store's refs are its
	// roots, and the parent chain stays reachable from this one
	// (manifests reference their parents), so nothing the chain needs is
	// deleted.
	if err := store.SetRef("HEAD", m2.Key()); err != nil {
		log.Fatal(err)
	}
	cs, err := repro.CollectChunks(store)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gc(keep newest): kept %d chunks, deleted %d\n", cs.Live, cs.Removed)
	if _, err := repro.LoadImage(store, m2); err != nil {
		log.Fatal("chain broken by GC: ", err)
	}
	fmt.Println("bit-identical: checksum, virtual time and instruction counts all match")
}
