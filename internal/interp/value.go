// Package interp is the tree-walking reference implementation of MiniMP
// on the mpisim runtime. Only tests import it: the bytecode VM
// (internal/vm) is the one execution engine, and interp is the semantic
// oracle the differential tests hold it to. Like the VM, it keeps the
// current PSG instance and vertex up to date on the simulated process
// (Proc.Ctx) as it runs, so tool hooks — the ScalAna sampler, the PMPI
// layer, the tracer — attribute time, PMU counters, and communication
// dependence to graph vertices exactly the way call-stack unwinding
// attributes samples on real hardware.
package interp

import (
	"fmt"

	"scalana/internal/minilang"
	"scalana/internal/vm"
)

// Value is the MiniMP runtime value, owned by the bytecode VM so both
// execution paths share one representation.
type Value = vm.Value

// num extracts a number, panicking with position context otherwise.
func num(v Value, pos minilang.Pos, what string) float64 {
	if !v.IsNum() {
		panic(fmt.Sprintf("%s: %s must be a number, got %s", pos, what, v))
	}
	return v.Num
}

func truthy(v Value, pos minilang.Pos) bool {
	return num(v, pos, "condition") != 0
}

func boolVal(b bool) Value {
	if b {
		return Value{Num: 1}
	}
	return Value{}
}
