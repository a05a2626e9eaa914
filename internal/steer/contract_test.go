package steer

import (
	"fmt"
	"testing"

	"clustersim/internal/prog"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

// annotatedUop builds an add whose annotation names a virtual cluster, a
// chain-leader flag and a static cluster.
func annotatedUop(vc int, leader bool, static int) *trace.Uop {
	return uopWith(prog.StaticOp{
		Opcode: uarch.OpAdd, Dst: uarch.IntReg(7),
		Src1: uarch.IntReg(1), Src2: uarch.IntReg(2),
		Ann: prog.Annotation{VC: vc, Leader: leader, Static: static},
	})
}

// TestRepeatedStallChangesOnlyComplexity pins the stall contract on
// Policy that the pipeline's idle-cycle fast-forward relies on: on a
// frozen machine, the second and third stalled Steer of one micro-op add
// the same Complexity delta and leave the policy otherwise exactly where
// the second call did — the decisions it makes once the machine thaws do
// not depend on how many repeats it saw.
func TestRepeatedStallChangesOnlyComplexity(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return &OP{} },
		func() Policy { return &OP{NoStall: true} },
		func() Policy { return &OneCluster{} },
		func() Policy { return &Static{Label: "OB"} },
		func() Policy { return NewVC(4) },
		func() Policy { return NewVCComm(4) },
		func() Policy { return &ModN{} },
		func() Policy { return &LeastLoaded{} },
		func() Policy { return &Slice{SliceLen: 3} },
		func() Policy { return &DependenceBalanced{Threshold: 4} },
	}
	stalled := []*trace.Uop{
		annotatedUop(2, true, 1),  // chain leader: VC mappers remap
		annotatedUop(3, false, 2), // follower
		addUop(1, 2),              // unannotated
	}
	// thawed is the sequence steered after the machine frees up.
	thawed := []*trace.Uop{
		annotatedUop(2, false, 1), annotatedUop(1, true, 0), addUop(1, 2),
		annotatedUop(3, true, 3), annotatedUop(2, false, 1), addUop(2, 1),
	}
	frozen := func() *fakeCtx {
		ctx := newFakeCtx(4)
		for c := 0; c < 4; c++ {
			ctx.space[c] = false
		}
		ctx.occ[0], ctx.occ[1], ctx.occ[2], ctx.occ[3] = 40, 12, 30, 9
		ctx.inflight[0], ctx.inflight[1], ctx.inflight[2], ctx.inflight[3] = 60, 20, 44, 15
		ctx.locs[uarch.IntReg(1)] = 1 << 2
		ctx.locs[uarch.IntReg(2)] = 1<<2 | 1<<0
		return ctx
	}
	for _, mk := range policies {
		for ui, u := range stalled {
			name := fmt.Sprintf("%s/uop%d", mk().Name(), ui)
			// stallN drives a fresh policy through n stalled calls and
			// returns it with the Complexity delta of each call.
			stallN := func(n int) (Policy, *fakeCtx, []Complexity) {
				p, ctx := mk(), frozen()
				var deltas []Complexity
				for i := 0; i < n; i++ {
					before := *p.Complexity()
					if d := p.Steer(ctx, u); !d.Stall {
						t.Fatalf("%s: call %d on a full machine = %+v, want a stall", name, i+1, d)
					}
					deltas = append(deltas, p.Complexity().Sub(before))
				}
				return p, ctx, deltas
			}
			twice, ctx2, _ := stallN(2)
			thrice, ctx3, deltas := stallN(3)
			if deltas[1] != deltas[2] {
				t.Errorf("%s: repeated stalls added different work: %+v then %+v", name, deltas[1], deltas[2])
			}
			if deltas[2].Steered != 1 {
				t.Errorf("%s: a repeated stall counted %d steering attempts, want 1", name, deltas[2].Steered)
			}
			// Thaw both machines and steer the same sequence: a third
			// repeat must have changed nothing the decisions depend on.
			for c := 0; c < 4; c++ {
				ctx2.space[c], ctx3.space[c] = true, true
			}
			for i, v := range append([]*trace.Uop{u}, thawed...) {
				if d2, d3 := twice.Steer(ctx2, v), thrice.Steer(ctx3, v); d2 != d3 {
					t.Errorf("%s: thawed decision %d after two stalls %+v, after three %+v", name, i, d2, d3)
				}
			}
			if got, want := thrice.Complexity().Sub(*twice.Complexity()), deltas[2]; got != want {
				t.Errorf("%s: the third stall left %+v extra work, want exactly its delta %+v", name, got, want)
			}
		}
	}
}
