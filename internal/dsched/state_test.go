package dsched

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// stateGolden is the marshalled State of the scheduler below. Session
// images embed these bytes, so no member may move, be renamed or
// disappear — "scale":1 and "commit_epoch":0 included, which nothing
// computes any more. The values were re-pinned when the resync epochs
// were deleted: commit_epoch is written 0, and the resync counts are what
// each start's region copy found.
const stateGolden = `{"quantum":700,"scale":1,"commit_epoch":0,"stats":{"Rounds":11,"ThreadQuanta":18,"SyncSkipped":3,"TablesResynced":60,"TablesSkipped":228,"Merge":{"TablesAdopted":11,"PagesAdopted":11,"PagesCompared":0,"BytesMerged":0,"PtesScanned":11}},"mutexes":[268435456,268435472],"conds":1,"barriers":[3]}`

// stateEpochGolden is the same scheduler's State as written at 29812f9,
// while a commit epoch was still kept: state bytes of that shape must
// keep attaching.
const stateEpochGolden = `{"quantum":700,"scale":1,"commit_epoch":19,"stats":{"Rounds":11,"ThreadQuanta":18,"SyncSkipped":0,"TablesResynced":183,"TablesSkipped":105,"Merge":{"TablesAdopted":11,"PagesAdopted":11,"PagesCompared":0,"BytesMerged":0,"PtesScanned":11}},"mutexes":[268435456,268435472],"conds":1,"barriers":[3]}`

func TestStateBytesPinned(t *testing.T) {
	const n = 3
	var got []byte
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: n}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 700})
		mu, turn := s.NewMutex(), s.NewMutex()
		cv := s.NewCond()
		b := s.NewBarrier(n)
		ready := rt.Alloc(8, 8)
		sum := rt.Alloc(8, 8)
		if err := s.Run(n, func(th *Thread) {
			env := th.Env()
			th.Lock(turn)
			if th.ID == 0 {
				env.Tick(1500)
				env.WriteU64(ready, 1)
				th.Broadcast(cv)
			} else {
				for env.ReadU64(ready) == 0 {
					th.Wait(cv, turn)
				}
			}
			th.Unlock(turn)
			th.BarrierWait(b)
			for i := 0; i < 3; i++ {
				th.Lock(mu)
				env.WriteU64(sum, env.ReadU64(sum)+uint64(th.ID+1))
				th.Unlock(mu)
				env.Tick(400)
			}
		}); err != nil {
			panic(err)
		}
		st, err := s.ExportState()
		if err != nil {
			panic(err)
		}
		if got, err = json.Marshal(st); err != nil {
			panic(err)
		}
		return rt.Env().ReadU64(sum)
	})
	if res.Status != kernel.StatusHalted || res.Ret != 3*(1+2+3) {
		t.Fatalf("%v ret %d: %v", res.Status, res.Ret, res.Err)
	}
	if string(got) != stateGolden {
		t.Errorf("State bytes moved:\n got  %s\n want %s", got, stateGolden)
	}
}

// TestAttachStateIgnoresCommitEpoch: a state written with a commit epoch
// attaches, carries its statistics and mutexes over, and exports with the
// epoch written 0.
func TestAttachStateIgnoresCommitEpoch(t *testing.T) {
	var old State
	if err := json.Unmarshal([]byte(stateEpochGolden), &old); err != nil {
		t.Fatal(err)
	}
	res := core.Run(core.Options{}, func(rt *core.RT) uint64 {
		s, err := AttachState(rt, Config{}, old)
		if err != nil {
			panic(err)
		}
		st, err := s.ExportState()
		if err != nil {
			panic(err)
		}
		want := old
		want.CommitEpoch = 0
		if !reflect.DeepEqual(st, want) {
			panic(fmt.Sprintf("re-exported %+v, want %+v", st, want))
		}
		return 0
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

// TestAttachStateRejectsScale: an image whose scale is anything but the
// constant 1 was not written by this scheduler.
func TestAttachStateRejectsScale(t *testing.T) {
	res := core.Run(core.Options{}, func(rt *core.RT) uint64 {
		st, err := mustNew(rt, Config{}).ExportState()
		if err != nil {
			panic(err)
		}
		if _, err := AttachState(rt, Config{}, st); err != nil {
			panic(err)
		}
		st.Scale = 2
		var bad *BadConfigError
		if _, err := AttachState(rt, Config{}, st); !errors.As(err, &bad) || bad.Field != "State.Scale" {
			panic(fmt.Sprintf("scale 2 attached: %v", err))
		}
		return 0
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}
