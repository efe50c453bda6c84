package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/vm"
)

// Env.Peek and PeekU32Stride are Read and ReadU32Stride with no charge:
// they move no counter, leave a page's demand paging to the next charged
// access of it, and fault wherever the charged forms fault.

// Memory the cases read, copied into the child: three pages at peekBase —
// backed, PermNone, backed — and nothing at all in peekHole's level-1 slot.
const (
	peekBase vm.Addr = 0x0010_0000
	peekHole vm.Addr = 0x4000_0000
)

// peekObs is what a child leaves behind: its end status and trap cause,
// its counters, and the bytes it read.
type peekObs struct {
	Status Status
	Fault  string
	Insns  int64
	VT     int64
	Net    NetStats
	Got    []byte
}

// runPeek runs fn in a child on the last node of a machine of the given
// size and reports what it left behind.
func runPeek(t *testing.T, nodes int, fn func(ce *Env) []byte) peekObs {
	t.Helper()
	var obs peekObs
	var cenv *Env
	ref := ChildOn(nodes-1, 1)
	res := New(Config{Nodes: nodes}).Run(func(env *Env) {
		env.SetPerm(peekBase, 3*vm.PageSize, vm.PermRW)
		for i := 0; i < 3*vm.PageSize; i += 4 {
			env.WriteU32(peekBase+vm.Addr(i), uint32(i)*2654435761)
		}
		env.SetPerm(peekBase+vm.PageSize, vm.PageSize, vm.PermNone)
		child := func(ce *Env) {
			cenv = ce
			obs.Got = fn(ce)
		}
		copies := []CopyRange{{Src: peekBase, Dst: peekBase, Size: 3 * vm.PageSize}}
		if err := env.Put(ref, PutOpts{Regs: &Regs{Entry: child}, Copies: copies, Start: true}); err != nil {
			panic(err)
		}
		info, err := env.Get(ref, GetOpts{})
		if err != nil {
			panic(err)
		}
		obs.Status, obs.Insns = info.Status, info.Insns
		if info.Err != nil {
			obs.Fault = fmt.Sprintf("%T %v", info.Err, info.Err)
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root stopped %v: %v", res.Status, res.Err)
	}
	obs.VT, obs.Net = cenv.sp.vt, cenv.sp.net
	return obs
}

func TestPeekChargesNothing(t *testing.T) {
	runPeek(t, 2, func(ce *Env) []byte {
		insns, vt, net := ce.Insns(), ce.VT(), ce.NetStats()
		peeked := make([]byte, 200)
		ce.Peek(peekBase+4000, peeked[:96])          // one page
		ce.Peek(peekBase+2*vm.PageSize, peeked[96:]) // the other backed page
		var col [31]uint32
		ce.PeekU32Stride(peekBase+2*vm.PageSize+32, 128, col[:])
		if ce.Insns() != insns || ce.VT() != vt || ce.NetStats() != net {
			t.Errorf("Peek moved insns %d → %d, vt %d → %d, net %+v → %+v",
				insns, ce.Insns(), vt, ce.VT(), net, ce.NetStats())
		}
		read := make([]byte, 200)
		ce.Read(peekBase+4000, read[:96])
		ce.Read(peekBase+2*vm.PageSize, read[96:])
		var want [31]uint32
		ce.ReadU32Stride(peekBase+2*vm.PageSize+32, 128, want[:])
		if !bytes.Equal(peeked, read) || col != want {
			t.Errorf("Peek returned other bytes than Read")
		}
		return nil
	})
}

// TestPeekLeavesDemandPaging: on a node the pages are not resident on, a
// Read after a Peek is charged exactly the paging it is charged alone.
func TestPeekLeavesDemandPaging(t *testing.T) {
	span := func(ce *Env) []byte {
		p := make([]byte, 64)
		ce.Read(peekBase+vm.PageSize-32, p[:32])
		ce.Read(peekBase+2*vm.PageSize, p[32:])
		return p
	}
	alone := runPeek(t, 2, span)
	after := runPeek(t, 2, func(ce *Env) []byte {
		var scratch [32]byte
		var col [8]uint32
		ce.Peek(peekBase+vm.PageSize-32, scratch[:])
		ce.Peek(peekBase+2*vm.PageSize, scratch[:])
		ce.PeekU32Stride(peekBase, 128, col[:])
		return span(ce)
	})
	if alone.Net.Pages == 0 {
		t.Fatalf("the Read paged nothing in: %+v", alone)
	}
	if after.Status != alone.Status || after.Insns != alone.Insns || after.VT != alone.VT ||
		after.Net != alone.Net || !bytes.Equal(after.Got, alone.Got) {
		t.Errorf("after a Peek %+v, alone %+v", after, alone)
	}
}

// TestPeekFaultsWhereReadFaults: unmapped memory, a page without PermR
// and a span that runs into one trap the child with the same cause.
func TestPeekFaultsWhereReadFaults(t *testing.T) {
	for _, c := range []struct {
		name string
		addr vm.Addr
		n    int
	}{
		{"unmapped", peekHole + 8, 4},
		{"PermNone", peekBase + vm.PageSize + 64, 4},
		{"into PermNone", peekBase + vm.PageSize - 2, 4},
		{"out of PermNone", peekBase + 2*vm.PageSize - 2, 4},
		{"off the top", 0xFFFF_FFFE, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			peek := runPeek(t, 1, func(ce *Env) []byte { ce.Peek(c.addr, make([]byte, c.n)); return nil })
			read := runPeek(t, 1, func(ce *Env) []byte { ce.Read(c.addr, make([]byte, c.n)); return nil })
			if peek.Status != StatusFault || peek.Fault != read.Fault {
				t.Errorf("Peek: %v %s; Read: %v %s", peek.Status, peek.Fault, read.Status, read.Fault)
			}
			col := runPeek(t, 1, func(ce *Env) []byte { ce.PeekU32Stride(c.addr-256, 128, make([]uint32, 3)); return nil })
			want := runPeek(t, 1, func(ce *Env) []byte { ce.ReadU32Stride(c.addr-256, 128, make([]uint32, 3)); return nil })
			if col.Status != StatusFault || col.Fault != want.Fault {
				t.Errorf("PeekU32Stride: %v %s; ReadU32Stride: %v %s", col.Status, col.Fault, want.Status, want.Fault)
			}
		})
	}
}
