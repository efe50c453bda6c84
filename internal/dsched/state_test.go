package dsched

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// stateGolden is the marshalled State of the scheduler below as captured
// at 29812f9, the commit before the adaptive-quantum policy was deleted.
// Session images embed these bytes (ckpt_v1.golden, quick.golden.json's
// ckpt cells and serve's failover digests hash them), so no member may
// move, be renamed or disappear — "scale":1 included, which nothing
// computes any more.
const stateGolden = `{"quantum":700,"scale":1,"commit_epoch":19,"stats":{"Rounds":11,"ThreadQuanta":18,"SyncSkipped":0,"TablesResynced":183,"TablesSkipped":105,"Merge":{"TablesAdopted":11,"PagesAdopted":11,"PagesCompared":0,"BytesMerged":0,"PtesScanned":11}},"mutexes":[268435456,268435472],"conds":1,"barriers":[3]}`

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
