package kernel

import "repro/internal/vm"

// Range names a page-aligned span of virtual memory.
type Range struct {
	Addr vm.Addr
	Size uint64
}

// CopyRange names a source and destination span for the Copy option.
// On Put, Src is in the parent and Dst in the child; on Get, Src is in the
// child and Dst in the parent. A span of whole 4 MiB tables (vm.TableSpan)
// with Src and Dst both table-aligned shares the tables, wherever Dst is;
// any other span shares page by page. Either way the copy is charged
// PageCopy per table or page it shared or zeroed.
type CopyRange struct {
	Src  vm.Addr
	Dst  vm.Addr
	Size uint64
}

// PermRange names a span and the permissions to apply (the Perm option).
type PermRange struct {
	Range
	Perm vm.Perm
}

// PutOpts selects the operations a Put performs on a child (Table 2 of the
// paper). Options combine freely; they apply in the order Regs, Zero,
// Copy/CopyAll, Perm, Snap, Tree, Start.
type PutOpts struct {
	// Regs loads the child's register state. If the child has a parked
	// execution and Regs.Entry is non-nil, the parked execution is
	// discarded (the instruction pointer was overwritten).
	Regs *Regs
	// Zero zero-fills a range of the child's memory.
	Zero *PermRange
	// Copy copies a parent range into the child copy-on-write.
	Copy *CopyRange
	// Copies applies additional parent→child range copies after Copy:
	// the multi-region fork idiom (e.g. shipping a thread's shared
	// region and its chained file-system image in one Put). Ranges are
	// applied in order, each copy-on-write like Copy.
	Copies []CopyRange
	// CopyAll copies the parent's entire address space into the child:
	// the fork idiom ("one Put call copies the parent's memory state").
	CopyAll bool
	// Copied, if non-nil, receives the copy-on-write work of this Put's
	// Copy, Copies or CopyAll, summed: the figures the cost model charges.
	// A table-aligned copy shares only the tables the child does not
	// already share with the parent, so a collector resynchronizing a
	// child learns from TablesShared how many tables had gone stale.
	Copied *vm.CopyStats
	// Perm sets page permissions on a child range.
	Perm *PermRange
	// Snap saves a snapshot of the child's post-copy memory as the
	// reference for a later Get with Merge. The kernel keeps the child's
	// snapshot and re-shares into it only the level-2 tables that differ
	// from the child's (vm.Resnap), charging those, so re-snapshotting an
	// unchanged child is free. The resulting snapshot is identical —
	// table for table — to one built from scratch.
	Snap bool
	// Tree deep-copies the subtree rooted at the caller's child TreeSrc
	// (memory, registers, snapshots and recursively all children) into
	// this child, which must be stopped — the checkpoint/restore idiom.
	Tree    bool
	TreeSrc uint64
	// Start sets the child executing after the state operations.
	Start bool
	// Limit arms an instruction limit when starting: the child traps back
	// to the parent after executing this many instructions (0 = none).
	Limit int64
}

// GetOpts selects the operations a Get performs (Table 2). Ranges in Zero
// and Perm refer to the parent's own memory (Get moves state toward the
// parent). Options apply in the order Regs, Zero, Copy/CopyAll, Merge,
// Perm, Tree.
type GetOpts struct {
	// Regs copies the child's register state out (into ChildInfo.Regs).
	Regs bool
	// Zero zero-fills a range of the parent's memory.
	Zero *PermRange
	// Copy copies a child range into the parent copy-on-write.
	Copy *CopyRange
	// CopyAll copies the child's entire address space into the parent
	// (the exec idiom: "this Get returns into the new program").
	CopyAll bool
	// Merge folds the child's changes since its last snapshot into the
	// parent, detecting write/write conflicts (§3.2). MergeRange limits
	// the span; nil merges the whole address space.
	Merge      bool
	MergeRange *Range
	// MergeLWW resolves write/write conflicts in favour of the merging
	// child (vm.MergeLastWriter) instead of raising an error; used by the
	// deterministic scheduler's quantum commits (§4.5).
	MergeLWW bool
	// Perm sets page permissions on a parent range.
	Perm *PermRange
	// Tree deep-copies this child's subtree into the caller's child
	// TreeDst, which must be stopped.
	Tree    bool
	TreeDst uint64
}

// ChildInfo reports a child's state at the rendezvous point of a Get/Put.
type ChildInfo struct {
	Status Status
	Err    error // trap cause for StatusFault/StatusExcept
	Regs   Regs  // child registers, if GetOpts.Regs was set
	Insns  int64 // instructions the child has executed
	// Merge reports the reconciliation work done when GetOpts.Merge was
	// set: the same deterministic statistics the cost model charges, so
	// collectors (the deterministic scheduler's telemetry, the bench
	// harness) can observe join volume without a second walk.
	Merge vm.MergeStats
}

// lookupChild finds or creates the child named by ref, migrating the
// caller to the child's node first (§3.3: the kernel migrates the calling
// space to the node named in the child number's node field, then interacts
// with the child locally).
func (sp *Space) lookupChild(op string, ref uint64) (*Space, error) {
	node, idx, err := sp.splitChildRef(ref)
	if err != nil {
		return nil, err
	}
	sp.migrate(node)
	key := uint64(node.id+1)<<nodeShift | idx
	child := sp.children[key]
	if child == nil {
		child = newSpace(sp.m, sp, key, node, sp.m.frames.NewSpace())
		sp.inheritResidency(child)
		if sp.children == nil {
			sp.children = make(map[uint64]*Space)
		}
		sp.children[key] = child
	}
	return child, nil
}

// copyList flattens the single Copy option and the Copies list into one
// ordered sequence of ranges to apply.
func copyList(first *CopyRange, rest []CopyRange) []CopyRange {
	if first == nil {
		return rest
	}
	return append([]CopyRange{*first}, rest...)
}

// transfer applies the memory options Put and Get share (Table 2) to dst,
// from src: Zero, then CopyAll or the Copy ranges in order. A Put's dst is
// the child, a Get's the caller; every span it writes leaves dst's caches
// on other nodes (wrote). It charges the copy-on-write work it did
// (chargeCopy) and returns it summed; a failing range stops the list
// after charging the ranges before it.
func (sp *Space) transfer(op string, dst, src *Space, zero *PermRange, copies []CopyRange, all bool) (vm.CopyStats, error) {
	if zero != nil {
		if err := dst.mem.Zero(zero.Addr, zero.Size, zero.Perm); err != nil {
			return vm.CopyStats{}, kerr(op, "zero: %v", err)
		}
		dst.wrote(sp.node, zero.Addr, zero.Size)
	}
	var copied vm.CopyStats
	if all {
		copied = dst.mem.CopyAllFrom(src.mem)
		dst.wrote(sp.node, 0, vm.SpaceSize)
	} else {
		for _, c := range copies {
			st, err := dst.mem.CopyFrom(src.mem, c.Src, c.Dst, c.Size)
			if err != nil {
				sp.chargeCopy(copied)
				return copied, kerr(op, "copy: %v", err)
			}
			dst.wrote(sp.node, c.Dst, c.Size)
			copied.Add(st)
		}
	}
	sp.chargeCopy(copied)
	return copied, nil
}

// rendezvous blocks until the child stops, finalizes its virtual-time
// segment, and synchronizes the parent's clock with it. Time the caller
// spends waiting here counts as blocked, not as CPU occupancy.
func (sp *Space) rendezvous(child *Space) {
	child.waitStopped()
	sp.collect(child)
	if child.status != StatusNever && child.vt > sp.vt {
		sp.segBlocked += child.vt - sp.vt
		sp.vt = child.vt
	}
}

// put implements the Put system call for sp as the caller.
func (sp *Space) put(ref uint64, o PutOpts) error {
	cost := sp.m.cost
	sp.chargeVT(cost.Syscall)
	child, err := sp.lookupChild("put", ref)
	if err != nil {
		return err
	}
	sp.rendezvous(child)

	if o.Regs != nil {
		if o.Regs.Entry != nil {
			// New instruction pointer: any parked execution is discarded.
			child.discardExecution()
			child.regs = *o.Regs
		} else {
			// Argument-only update keeps the current entry point.
			entry := child.regs.Entry
			child.regs = *o.Regs
			child.regs.Entry = entry
		}
	}
	copied, err := sp.transfer("put", child, sp, o.Zero, copyList(o.Copy, o.Copies), o.CopyAll)
	if err != nil {
		return err
	}
	if o.Copied != nil {
		*o.Copied = copied
	}
	if o.CopyAll || o.Copy != nil || len(o.Copies) > 0 {
		// COW sharing means the child's view of the copied pages is as
		// resident as the parent's was.
		sp.inheritResidency(child)
	}
	if o.Perm != nil {
		if err := child.mem.SetPerm(o.Perm.Addr, o.Perm.Size, o.Perm.Perm); err != nil {
			return kerr("put", "perm: %v", err)
		}
	}
	if o.Snap {
		var st vm.CopyStats
		child.snap, st = child.mem.Resnap(child.snap)
		sp.chargeCopy(st)
	}
	if o.Tree {
		src, err := sp.lookupChild("put", o.TreeSrc)
		if err != nil {
			return err
		}
		sp.rendezvous(src)
		sp.cloneTree(child, src)
	}
	if o.Start {
		if child.regs.Entry == nil {
			return kerr("put", "start: child %#x has no entry point", ref)
		}
		if !child.status.Resumable() && child.status != StatusNever && o.Regs == nil {
			return kerr("put", "start: child %#x stopped with %v and no new registers were loaded",
				ref, child.status)
		}
		child.vt = max64(child.vt, sp.vt)
		child.start(o.Limit)
	}
	return nil
}

// get implements the Get system call for sp as the caller.
func (sp *Space) get(ref uint64, o GetOpts) (ChildInfo, error) {
	cost := sp.m.cost
	sp.chargeVT(cost.Syscall)
	child, err := sp.lookupChild("get", ref)
	if err != nil {
		return ChildInfo{}, err
	}
	sp.rendezvous(child)

	info := ChildInfo{Status: child.status, Err: child.trapErr, Insns: child.insns}
	if o.Regs {
		info.Regs = child.regs
	}
	if _, err := sp.transfer("get", sp, child, o.Zero, copyList(o.Copy, nil), o.CopyAll); err != nil {
		return info, err
	}
	if o.Merge {
		if child.snap == nil {
			return info, kerr("get", "merge: child %#x has no snapshot", ref)
		}
		r := Range{0, vm.SpaceSize}
		if o.MergeRange != nil {
			r = *o.MergeRange
		}
		mode := vm.MergeStrict
		if o.MergeLWW {
			mode = vm.MergeLastWriter
		}
		cfg := vm.MergeConfig{Mode: mode}
		var wire *shipper
		if sp.caches != nil {
			// Every page the merge writes (MergeConfig.Moved) leaves the
			// caller's caches on other nodes, as a store's would. When
			// the merge ran on a node other than the caller's home, the
			// merged result must also reach the home copy: those pages
			// ship home in runs, one request per run of at most
			// BatchPages pages, so the pages shipped are
			// PagesAdopted+PagesCompared. A collector merging a child
			// homed on its own node — a delegate collecting its local
			// threads — moves nothing across the wire and charges
			// nothing. The sink is made only here: stored in cfg it
			// escapes, and a single-node merge must not allocate.
			ship := sp.home != child.node
			wire = &shipper{sp: sp}
			cfg.Moved = func(p vm.Addr) {
				sp.wrote(sp.node, p, vm.PageSize)
				if ship {
					wire.add(p)
				}
			}
		}
		st, err := vm.MergeEx(sp.mem, child.mem, child.snap, r.Addr, r.Size, cfg)
		if wire != nil {
			wire.flush()
		}
		info.Merge = st
		// Adopted pages are pte moves; compared pages walk all 4 KiB.
		// Charging them separately keeps join cost proportional to data
		// actually reconciled, not to pages merely mapped.
		sp.chargeVT(int64(st.PagesCompared)*cost.PageCompare +
			int64(st.BytesMerged)*cost.ByteMerge +
			int64(st.TablesAdopted)*cost.PageCopy +
			int64(st.PagesAdopted)*cost.PageAdopt)
		if err != nil {
			return info, err // vm.MergeConflictError: the paper's runtime exception
		}
	}
	if o.Perm != nil {
		if err := sp.mem.SetPerm(o.Perm.Addr, o.Perm.Size, o.Perm.Perm); err != nil {
			return info, kerr("get", "perm: %v", err)
		}
	}
	if o.Tree {
		dst, err := sp.lookupChild("get", o.TreeDst)
		if err != nil {
			return info, err
		}
		sp.rendezvous(dst)
		sp.cloneTree(dst, child)
	}
	return info, nil
}

// cloneTree deep-copies src's state (memory, snapshot, registers and all
// descendants) into dst. Both subtrees must be stopped, which the callers'
// rendezvous guarantees for the roots; descendants of a stopped space are
// stopped by induction only if the program stopped them — we wait to be
// safe.
func (sp *Space) cloneTree(dst, src *Space) {
	dst.discardExecution()
	sp.chargeCopy(dst.mem.CopyAllFrom(src.mem))
	if dst.snap != nil {
		dst.snap.Free()
		dst.snap = nil
	}
	if src.snap != nil {
		var st vm.CopyStats
		dst.snap, st = src.snap.Snapshot()
		sp.chargeCopy(st)
	}
	dst.regs = src.regs
	dst.status = src.status
	dst.trapErr = src.trapErr
	dst.insns = src.insns
	// A cloned parked execution cannot be reproduced (the goroutine stack
	// is not copyable); a resumable source clones as freshly-restartable
	// from its registers. This limitation mirrors the prototype's
	// restriction of Tree to stopped, quiescent subtrees.
	if dst.status == StatusRet || dst.status == StatusInsnLimit {
		dst.status = StatusNever
	}
	for ref, sc := range src.children {
		sc.waitStopped()
		dc := dst.children[ref]
		if dc == nil {
			dc = newSpace(sp.m, dst, ref, sc.home, sp.m.frames.NewSpace())
			dc.residentHere()
			if dst.children == nil {
				dst.children = make(map[uint64]*Space)
			}
			dst.children[ref] = dc
		} else {
			dc.waitStopped()
		}
		sp.cloneTree(dc, sc)
	}
}
