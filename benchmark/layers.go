package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/castore"
	"repro/internal/detmake"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/vm"
	suite "repro/internal/workload"
)

// The unit drives: each layer's public functions called on a fixed
// shape, timed from here. Their inputs do not depend on the seed or on
// the workload being traced, so every traced run reports them and any
// two runs can be compared. Wall numbers are medians over repetitions;
// the exact counts come from one repetition and must not vary.

// medianOf calls f n times and returns the median of the durations it
// reports.
func medianOf(n int, f func() time.Duration) time.Duration {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(f())
	}
	return time.Duration(median(v))
}

// timed returns how long f took.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// must turns a drive's unexpected error into a panic that driveAll
// reports with the drive's name: a unit drive that cannot run is a
// broken benchmark, not a measurement.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// driveAll runs every unit drive and returns their metrics.
func driveAll(c *runConfig) (out map[string]float64, err error) {
	out = make(map[string]float64)
	dir, err := os.MkdirTemp(c.work, "layers-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	drives := []struct {
		name string
		run  func()
	}{
		{"vm", func() { driveVM(out) }},
		{"vm image", func() { driveVMImage(out) }},
		{"kernel", func() { driveKernel(out) }},
		{"par counts", func() { driveParCounts(c, out) }},
		{"core", func() { driveCore(out) }},
		{"dsched", func() { driveDsched(out) }},
		{"fs", func() { driveFS(out) }},
		{"castore", func() { driveCastore(dir, out) }},
		{"session", func() { driveSession(dir, out) }},
		{"detmake", func() { driveDetmake(dir, out) }},
	}
	for _, d := range drives {
		if err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("unit drive %s: %v", d.name, r)
				}
			}()
			d.run()
			return nil
		}(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// driveVM times Space.Snapshot, the first write to a COW-shared page,
// and vm.Merge on a fixed 4096-page, 4-child shape: 10%-dirty children
// over an untouched parent (every dirty page adopted) and 100%-dirty
// children over a parent that touched every page (every page
// byte-compared, first join, COW breaks included).
func driveVM(out map[string]float64) {
	const pages, children = 4096, 4
	adopt := bench.BuildMergeWorkload(pages, children, 0.10, false)
	defer adopt.Free()
	compare := bench.BuildMergeWorkload(pages, children, 1.00, true)
	defer compare.Free()

	const batch = 256
	d := medianOf(9, func() time.Duration {
		snaps := make([]*vm.Space, 0, batch)
		wall := timed(func() {
			for i := 0; i < batch; i++ {
				s, _ := adopt.Parent.Snapshot()
				snaps = append(snaps, s)
			}
		})
		for _, s := range snaps {
			s.Free()
		}
		return wall
	})
	out["vm.snapshot_ns_per_page"] = float64(d) / batch / pages

	word := make([]byte, 8)
	d = medianOf(5, func() time.Duration {
		child := vm.NewSpace()
		child.CopyAllFrom(adopt.Parent)
		defer child.Free()
		return timed(func() {
			for p := 0; p < pages; p++ {
				must(child.Write(vm.Addr(p)*vm.PageSize, word))
			}
		})
	})
	out["vm.cow_write_ns_per_page"] = float64(d) / pages

	var adoptSt, compareSt vm.MergeStats
	d = medianOf(7, func() time.Duration {
		st, wall := adopt.JoinAll(vm.MergeConfig{})
		adoptSt = st
		return wall
	})
	out["vm.merge_adopt_ns_per_page"] = float64(d) / float64(adoptSt.PagesAdopted)
	d = medianOf(7, func() time.Duration {
		st, wall := compare.JoinAll(vm.MergeConfig{})
		compareSt = st
		return wall
	})
	out["vm.merge_compare_gbps"] = float64(compareSt.PagesCompared) * vm.PageSize / d.Seconds() / 1e9
	out["vm.merge.pages_adopted"] = float64(adoptSt.PagesAdopted)
	out["vm.merge.pages_compared"] = float64(compareSt.PagesCompared)
	out["vm.merge.ptes_scanned"] = float64(adoptSt.PtesScanned + compareSt.PtesScanned)
}

// unitArg seeds the stripe sessions of the unit drives.
const unitArg = 0x5eed

// restingImage is the stripe session's checkpoint half-way through.
func restingImage(arg uint64) *repro.Image {
	sess, err := repro.NewSession(daemonSessionOpts()...)
	must(err)
	img, err := sess.RunToCheckpoint(stripe(arg), stripePhases/2)
	must(err)
	return img
}

// driveVMImage sends the stripe resting image's forest through the
// chunk layer against a MemStore.
func driveVMImage(out map[string]float64) {
	_, forest, err := kernel.SplitImage(restingImage(unitArg).Kernel)
	must(err)
	mb := float64(len(forest)) / (1 << 20)
	var store *castore.MemStore
	var root castore.Key
	d := medianOf(9, func() time.Duration {
		store = castore.NewMemStore()
		return timed(func() { root, err = vm.ChunkForest(store, forest, castore.Key{}); must(err) })
	})
	out["vm.chunk_forest_ms_per_mb"] = ms(d) / mb
	d = medianOf(9, func() time.Duration {
		return timed(func() { _, err := vm.UnchunkForest(store, root); must(err) })
	})
	out["vm.unchunk_forest_ms_per_mb"] = ms(d) / mb
	d = medianOf(9, func() time.Duration {
		var spaces []*vm.Space
		wall := timed(func() { spaces, err = vm.DecodeForest(forest); must(err) })
		for _, s := range spaces {
			s.Free()
		}
		return wall
	})
	out["vm.decode_forest_ms_per_mb"] = ms(d) / mb
}

// driveKernel is a benchmark-owned root program timing Env.Put/Get on an
// empty child, a fork (Copy+Snap+Start) and join (Get+Merge) of a child
// that dirties 16 pages, Env.Checkpoint of a 1 MiB machine, and
// Machine.Restore of that image.
func driveKernel(out map[string]float64) {
	const (
		base      vm.Addr = 0x4000_0000
		forkPages         = 16
		ckptPages         = 256
	)
	cfg := kernel.Config{CPUsPerNode: 2, MergeWorkers: 1}
	var img []byte
	res := kernel.New(cfg).Run(func(env *kernel.Env) {
		noop := func(*kernel.Env) {}
		d := medianOf(200, func() time.Duration {
			return timed(func() {
				must(env.Put(1, kernel.PutOpts{Regs: &kernel.Regs{Entry: noop}, Start: true}))
				_, err := env.Get(1, kernel.GetOpts{Regs: true})
				must(err)
			})
		})
		out["kernel.put_get_us"] = usOf(d)

		env.SetPerm(base, ckptPages*vm.PageSize, vm.PermRW)
		page := make([]byte, vm.PageSize)
		for i := range page {
			page[i] = byte(i)
		}
		for p := 0; p < ckptPages; p++ {
			env.Write(base+vm.Addr(p)*vm.PageSize, page)
		}
		dirty := func(e *kernel.Env) {
			for p := 0; p < forkPages; p++ {
				e.WriteU64(base+vm.Addr(p)*vm.PageSize+64, uint64(p))
			}
		}
		span := uint64(forkPages * vm.PageSize)
		d = medianOf(200, func() time.Duration {
			return timed(func() {
				must(env.Put(2, kernel.PutOpts{
					Regs: &kernel.Regs{Entry: dirty},
					Copy: &kernel.CopyRange{Src: base, Dst: base, Size: span},
					Snap: true, Start: true,
				}))
				_, err := env.Get(2, kernel.GetOpts{Merge: true, MergeRange: &kernel.Range{Addr: base, Size: span}})
				must(err)
			})
		})
		out["kernel.fork_merge_us"] = usOf(d)

		d = medianOf(15, func() time.Duration {
			return timed(func() {
				var err error
				img, err = env.Checkpoint(kernel.CheckpointOpts{})
				must(err)
			})
		})
		out["kernel.checkpoint_ms"] = ms(d)
	}, 0)
	if res.Status != kernel.StatusHalted {
		panic(fmt.Sprintf("root program stopped with %v: %v", res.Status, res.Err))
	}
	d := medianOf(15, func() time.Duration {
		m := kernel.New(cfg)
		return timed(func() { must(m.Restore(img)) })
	})
	out["kernel.restore_ms"] = ms(d)
}

// driveParCounts runs the paper suite once per granularity and sums the
// deterministic counters of the runs.
func driveParCounts(c *runConfig, out map[string]float64) {
	for _, grain := range []string{"coarse", "fine"} {
		var vt, insns int64
		for _, spec := range suite.Specs() {
			if spec.Granularity != grain {
				continue
			}
			res, err := runDet(spec, c.threads)
			must(err)
			vt += res.VT
			insns += res.Insns
		}
		out["kernel.vt.par_"+grain] = float64(vt)
		out["kernel.insns.par_"+grain] = float64(insns)
	}
}

// runRT runs main under a fresh 4-CPU runtime.
func runRT(main func(rt *repro.RT)) {
	res := repro.Run(repro.Options{Kernel: repro.MachineConfig{CPUsPerNode: 4}, SharedSize: 4 << 20},
		func(rt *repro.RT) uint64 { main(rt); return 0 })
	if res.Status != kernel.StatusHalted {
		panic(fmt.Sprintf("root program stopped with %v: %v", res.Status, res.Err))
	}
}

// driveCore times RT.ParallelDo over no-op threads and RT.RunPhases
// over empty phases.
func driveCore(out map[string]float64) {
	const threads, rounds = 4, 32
	runRT(func(rt *repro.RT) {
		d := medianOf(100, func() time.Duration {
			return timed(func() {
				_, err := rt.ParallelDo(threads, func(*repro.Thread) uint64 { return 0 })
				must(err)
			})
		})
		out["core.parallel_do_us_per_thread"] = usOf(d) / threads
		d = medianOf(7, func() time.Duration {
			return timed(func() { must(rt.RunPhases(threads, rounds+1, func(*repro.Thread, int) {})) })
		})
		out["core.barrier_round_us"] = usOf(d) / rounds
	})
}

// driveDsched runs four threads that do nothing but yield under the
// deterministic scheduler.
func driveDsched(out map[string]float64) {
	const threads, yields = 4, 64
	var rounds, skipped int64
	d := medianOf(5, func() time.Duration {
		var wall time.Duration
		runRT(func(rt *repro.RT) {
			s, err := repro.NewSchedWith(rt, repro.SchedConfig{})
			must(err)
			wall = timed(func() {
				must(s.Run(threads, func(t *repro.SchedThread) {
					for i := 0; i < yields; i++ {
						t.Yield()
					}
				}))
			})
			st := s.Stats()
			rounds, skipped = st.Rounds, st.TablesSkipped
		})
		return wall
	})
	out["dsched.round_us"] = usOf(d) / float64(rounds)
	out["dsched.rounds"] = float64(rounds)
	out["dsched.tables_skipped"] = float64(skipped)
}

// driveFS works on a detmake-sized master image: FS.Checksum of it,
// WriteFile+ReadFile of a 1 KiB file, and ReconcileFrom a task-sized
// image holding one new output — detmake's per-task collection.
func driveFS(out map[string]float64) {
	const stage vm.Addr = 0xA000_0000
	body := sourceText(new(rng), 1024)
	res := kernel.New(kernel.Config{}).Run(func(env *kernel.Env) {
		master := fs.Format(env, fs.DefaultBase, detmake.DefaultMasterFSSize)
		must(master.Mkdir("src"))
		for i := 0; i < 32; i++ {
			must(master.WriteFile(fmt.Sprintf("src/f%02d.c", i), body))
		}
		d := medianOf(7, func() time.Duration { return timed(func() { master.Checksum() }) })
		out["fs.checksum_ms"] = ms(d)
		d = medianOf(200, func() time.Duration {
			return timed(func() {
				must(master.WriteFile("src/scratch", body))
				_, err := master.ReadFile("src/scratch")
				must(err)
			})
		})
		out["fs.write_read_file_us"] = usOf(d)
		n := 0
		d = medianOf(20, func() time.Duration {
			child := fs.Format(env, stage, detmake.DefaultTaskFSSize)
			child.StampFork()
			must(child.Mkdir("out"))
			must(child.WriteFile(fmt.Sprintf("out/f%02d.o", n), body))
			n++
			return timed(func() {
				conflicts, err := master.ReconcileFrom(child)
				must(err)
				if len(conflicts) > 0 {
					panic(fmt.Sprintf("reconcile reported %v", conflicts))
				}
			})
		})
		out["fs.reconcile_ms"] = ms(d)
	}, 0)
	if res.Status != kernel.StatusHalted {
		panic(fmt.Sprintf("root program stopped with %v: %v", res.Status, res.Err))
	}
}

// driveCastore puts, re-puts and gets 4 KiB text-like chunks on a
// DirStore.
func driveCastore(dir string, out map[string]float64) {
	store, err := castore.OpenDirStore(filepath.Join(dir, "castore"))
	must(err)
	const n = 128
	r := new(rng)
	chunks := make([][]byte, n)
	keys := make([]castore.Key, n)
	for i := range chunks {
		chunks[i] = sourceText(r, 4096)
		keys[i] = castore.KeyOf(chunks[i])
	}
	each := func(f func(i int)) time.Duration {
		i := 0
		return medianOf(n, func() time.Duration {
			d := timed(func() { f(i) })
			i++
			return d
		})
	}
	out["castore.put_us"] = usOf(each(func(i int) { must(store.Put(keys[i], chunks[i])) }))
	out["castore.put_dup_us"] = usOf(each(func(i int) { must(store.Put(keys[i], chunks[i])) }))
	out["castore.get_us"] = usOf(each(func(i int) { _, err := store.Get(keys[i]); must(err) }))
}

// driveSession drives one stripe session by hand through
// Bind/Step/Suspend/Step, then one resting image through
// SaveImage/LoadImage and Bytes/DecodeImage; a wrapper around the
// program's callbacks times the program's own share of the steps.
func driveSession(dir string, out map[string]float64) {
	store, err := castore.OpenDirStore(filepath.Join(dir, "session"))
	must(err)
	samples := make(map[string][]float64)
	add := func(name string, f func()) { samples[name] = append(samples[name], float64(timed(f))) }
	var inProgram, inSteps time.Duration
	const reps = 7
	for k := uint64(0); k < reps; k++ {
		prog := instrument(stripe(unitArg+k), func(string) func() {
			start := time.Now()
			return func() { inProgram += time.Since(start) }
		})
		sess, err := repro.NewSession(daemonSessionOpts()...)
		must(err)
		add("bind", func() { must(sess.Bind(prog)) })
		step := func(name string) {
			before := len(samples[name])
			add(name, func() { _, err := sess.Step(1); must(err) })
			inSteps += time.Duration(samples[name][before])
		}
		step("first_step") // no image to restore yet: kept out of step_ms
		for i := 1; i < stripePhases/2; i++ {
			step("step")
		}
		add("suspend", func() { _, err := sess.Suspend(store); must(err) })
		step("step_resume")
		must(sess.Close())

		img := restingImage(unitArg + k)
		var man *repro.Manifest
		add("save_image", func() { man, err = repro.SaveImage(store, img, nil); must(err) })
		add("load_image", func() { _, err := repro.LoadImage(store, man); must(err) })
		var raw []byte
		add("image_bytes", func() { raw, err = img.Bytes(); must(err) })
		add("decode_image", func() { _, err := repro.DecodeImage(raw); must(err) })
	}
	out["session.bind_us"] = median(samples["bind"]) / 1e3
	for _, name := range []string{"step", "step_resume", "suspend", "save_image", "load_image", "image_bytes", "decode_image"} {
		out["session."+name+"_ms"] = median(samples[name]) / 1e6
	}
	out["session.program_share"] = float64(inProgram) / float64(inSteps)
}

// openDirCache opens (creating if needed) an on-disk cache: a DirStore
// with its DirIndex beside the chunk fan-out, as cmd/detmake lays it out.
func openDirCache(dir string) (*buildCache, error) {
	store, err := castore.OpenDirStore(dir)
	if err != nil {
		return nil, err
	}
	index, err := detmake.OpenDirIndex(filepath.Join(dir, "actions"))
	if err != nil {
		return nil, err
	}
	return &buildCache{store: store, index: index}, nil
}

// unitSeed generates the unit drives' build sources.
const unitSeed = 1

// driveDetmake builds each shape cold into a fresh DirStore+DirIndex
// and warm over it, then rebuilds wide and ferret after a one-leaf
// edit, asserting that exactly the leaf's cone re-executes.
func driveDetmake(dir string, out map[string]float64) {
	shapes, err := makeShapes(unitSeed)
	must(err)
	const reps = 5
	var incr float64
	var executed, hits int
	var stored, fetched, vt int64
	for _, sh := range shapes {
		var cold, warm, inc []float64
		for r := 0; r < reps; r++ {
			cacheDir := filepath.Join(dir, fmt.Sprintf("%s-%d", sh.name, r))
			cache, err := openDirCache(cacheDir)
			must(err)
			build := func(src map[string][]byte) (res detmake.Result, d time.Duration) {
				d = timed(func() {
					res, err = detmake.Build(detmake.Config{Graph: sh.graph, Sources: src, Store: cache.store, Index: cache.index})
					must(err)
				})
				return res, d
			}
			c, d := build(sh.sources)
			cold = append(cold, ms(d))
			w, d := build(sh.sources)
			warm = append(warm, ms(d))
			if w.TreeDigest != c.TreeDigest || w.Checksum != c.Checksum || w.Stats.CacheHits != w.Stats.Tasks {
				panic(fmt.Sprintf("%s: warm build is not a bit-equal 100%%-hit replay of the cold one", sh.name))
			}
			if r == 0 {
				executed += c.Stats.Executed
				hits += w.Stats.CacheHits
				stored += c.Stats.Stored
				fetched += w.Stats.Fetched
				vt += c.VT
			}
			if sh.leaf != "" {
				edited := maps.Clone(sh.sources)
				edited[sh.leaf] = append([]byte("edited\n"), sh.sources[sh.leaf]...)
				res, d := build(edited)
				if cone := sh.graph.Cone(sh.leaf); res.Stats.Executed != len(cone) {
					panic(fmt.Sprintf("%s: one-leaf edit executed %d tasks, its cone has %d", sh.name, res.Stats.Executed, len(cone)))
				}
				inc = append(inc, ms(d))
			}
			os.RemoveAll(cacheDir)
		}
		out["detmake.build_ms."+sh.name+".cold"] = median(cold)
		out["detmake.build_ms."+sh.name+".warm"] = median(warm)
		incr += median(inc)
	}
	out["detmake.incr_build_ms"] = incr
	out["detmake.executed"] = float64(executed)
	out["detmake.cache_hits"] = float64(hits)
	out["detmake.stored_bytes"] = float64(stored)
	out["detmake.fetched_bytes"] = float64(fetched)
	out["detmake.vt"] = float64(vt)
}
