package vm

import (
	"fmt"

	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// Value is a MiniMP runtime value: a number, a function reference, or an
// array. The zero Value is the number 0. The reference interpreter
// (internal/interp) uses this same type, so both execution paths agree on
// representation, printing, and error formatting down to the byte.
type Value struct {
	Num float64
	Fn  string    // non-empty: function reference created by &name
	Arr []float64 // non-nil: array created by alloc(n)
}

// IsNum reports whether v is a plain number.
func (v Value) IsNum() bool { return v.Fn == "" && v.Arr == nil }

func (v Value) String() string {
	switch {
	case v.Fn != "":
		return "&" + v.Fn
	case v.Arr != nil:
		return fmt.Sprintf("array[%d]", len(v.Arr))
	default:
		return fmt.Sprintf("%g", v.Num)
	}
}

// IndirectObserver is notified when an indirect call resolves its target
// at run time (paper §III-B3). The ScalAna profiler records these to
// refine the PSG.
type IndirectObserver func(rank int, inst *psg.Instance, site minilang.NodeID, target string)
