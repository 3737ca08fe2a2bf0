package vm

import (
	"fmt"
	"io"
	"math"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
)

// Runner executes a compiled Program on simulated ranks. It is the
// bytecode counterpart of the reference interpreter's interp.Runner and
// keeps the same knobs, so the differential tests can swap one for the
// other.
type Runner struct {
	Prog *Program
	// GlueIns is the abstract instruction count charged per statement,
	// identical in meaning to interp.Runner.GlueIns.
	GlueIns float64
	// Stdout receives print() output; nil discards it.
	Stdout io.Writer
	// OnIndirect observes runtime indirect-call resolution.
	OnIndirect IndirectObserver
}

// NewRunner builds a Runner with the interpreter's defaults.
func NewRunner(p *Program) *Runner {
	return &Runner{Prog: p, GlueIns: 24}
}

// Execute runs the program's main function on rank p. It is the body
// passed to mpisim.World.Run.
func (r *Runner) Execute(p *mpisim.Proc) {
	main := r.Prog.main
	if len(main.code.fn.Params) != 0 {
		panic(fmt.Sprintf("vm: %s expects %d args, got 0", main.code.fn.Name, len(main.code.fn.Params)))
	}
	m := &machine{r: r, p: p}
	m.call(main, nil)
}

// machine is the per-rank execution state. Frames are reused across
// calls at the same depth, so steady-state execution performs no
// allocations: slots are written before they are read (the checker's
// declare-before-use guarantee), which makes zeroing unnecessary.
type machine struct {
	r      *Runner
	p      *mpisim.Proc
	frames [][]Value
	depth  int
}

// Precomputed conversion-role strings so the hot path never
// concatenates (the messages only surface in panics).
var (
	mpiArgWhats  [len(mpiNames)]string
	mathArgWhats [len(mathNames)]string
)

func init() {
	for i, n := range mpiNames {
		mpiArgWhats[i] = n + " argument"
	}
	for i, n := range mathNames {
		mathArgWhats[i] = n + " argument"
	}
}

// num, truthy, and boolVal mirror the interpreter's helpers, panic
// messages included.
//
//scalana:hot
func num(v Value, pos minilang.Pos, what string) float64 {
	if !v.IsNum() {
		badNum(v, pos, what)
	}
	return v.Num
}

// badNum is outlined from num so that num stays within the inlining
// budget: the fmt.Sprintf kept num (≈a quarter of sweep CPU) from
// inlining into every arithmetic opcode.
//
//go:noinline
func badNum(v Value, pos minilang.Pos, what string) {
	panic(fmt.Sprintf("%s: %s must be a number, got %s", pos, what, v))
}

// truthy coerces a condition value, panicking on non-numbers.
//
//scalana:hot
func truthy(v Value, pos minilang.Pos) bool {
	return num(v, pos, "condition") != 0
}

// boolVal converts a Go bool to the VM's numeric truth values.
//
//scalana:hot
func boolVal(b bool) Value {
	if b {
		return Value{Num: 1}
	}
	return Value{}
}

// call runs one function invocation. args is a subslice of the caller's
// frame; it is copied into the callee frame before execution.
//
//scalana:hot
func (m *machine) call(l *Link, args []Value) Value {
	code := l.code
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, make([]Value, code.nSlots))
	}
	f := m.frames[m.depth]
	if int32(len(f)) < code.nSlots {
		f = make([]Value, code.nSlots)
		m.frames[m.depth] = f
	}
	copy(f, args)
	m.depth++
	v := m.run(l, f)
	m.depth--
	return v
}

// run is the bytecode dispatch loop — the hottest function in a sweep.
//
//scalana:hot
func (m *machine) run(l *Link, f []Value) Value {
	code := l.code
	instrs := code.instrs
	p := m.p
	for pc := 0; pc < len(instrs); {
		in := instrs[pc]
		pc++
		switch in.op {
		case opNop:
		case opConst:
			f[in.a] = code.consts[in.b]
		case opMove:
			f[in.a] = f[in.b]
		case opSetCtx:
			if v := l.ctx[in.a]; v != nil {
				p.Ctx = v
			}
		case opGlue:
			if m.r.GlueIns > 0 {
				p.Glue(m.r.GlueIns)
			}
		case opJmp:
			pc = int(in.a)
		case opJmpFalse:
			if !truthy(f[in.a], code.poss[in.pos]) {
				pc = int(in.b)
			}
		case opJmpTrue:
			if truthy(f[in.a], code.poss[in.pos]) {
				pc = int(in.b)
			}
		case opRet:
			if in.a < 0 {
				return Value{}
			}
			return f[in.a]
		case opChkNum:
			num(f[in.a], code.poss[in.pos], whats[in.b])

		case opNeg:
			f[in.b] = Value{Num: -num(f[in.a], code.poss[in.pos], "operand")}
		case opNot:
			f[in.b] = boolVal(num(f[in.a], code.poss[in.pos], "operand") == 0)
		case opBool:
			f[in.b] = boolVal(truthy(f[in.a], code.poss[in.pos]))
		case opAdd:
			f[in.c] = Value{Num: f[in.a].Num + f[in.b].Num}
		case opSub:
			f[in.c] = Value{Num: f[in.a].Num - f[in.b].Num}
		case opMul:
			f[in.c] = Value{Num: f[in.a].Num * f[in.b].Num}
		case opDiv:
			if f[in.b].Num == 0 {
				panic(fmt.Sprintf("%s: division by zero", code.poss[in.pos]))
			}
			f[in.c] = Value{Num: f[in.a].Num / f[in.b].Num}
		case opMod:
			if f[in.b].Num == 0 {
				panic(fmt.Sprintf("%s: modulo by zero", code.poss[in.pos]))
			}
			f[in.c] = Value{Num: math.Mod(f[in.a].Num, f[in.b].Num)}
		case opEq:
			f[in.c] = boolVal(f[in.a].Num == f[in.b].Num)
		case opNe:
			f[in.c] = boolVal(f[in.a].Num != f[in.b].Num)
		case opLt:
			f[in.c] = boolVal(f[in.a].Num < f[in.b].Num)
		case opLe:
			f[in.c] = boolVal(f[in.a].Num <= f[in.b].Num)
		case opGt:
			f[in.c] = boolVal(f[in.a].Num > f[in.b].Num)
		case opGe:
			f[in.c] = boolVal(f[in.a].Num >= f[in.b].Num)

		case opArrChk:
			if f[in.a].Arr == nil {
				panic(fmt.Sprintf("%s: %q is not an array", code.poss[in.pos], code.names[in.d]))
			}
		case opLoadIdx:
			arr := f[in.a].Arr
			idx := int(num(f[in.b], code.poss[in.pos], "index"))
			if idx < 0 || idx >= len(arr) {
				panic(fmt.Sprintf("%s: index %d out of range [0,%d)", code.poss[in.pos], idx, len(arr)))
			}
			f[in.c] = Value{Num: arr[idx]}
		case opIdxChk:
			arr := f[in.a].Arr
			idx := int(num(f[in.b], code.poss[in.pos], "index"))
			if idx < 0 || idx >= len(arr) {
				panic(fmt.Sprintf("%s: index %d out of range [0,%d)", code.poss[in.pos], idx, len(arr)))
			}
		case opStoreIdx:
			f[in.a].Arr[int(f[in.b].Num)] = num(f[in.c], code.poss[in.pos], "array element")
		case opAlloc:
			ln := int(num(f[in.a], code.poss[in.pos], "alloc argument"))
			if ln < 0 {
				panic(fmt.Sprintf("%s: alloc of negative length %d", code.poss[in.pos], ln))
			}
			f[in.b] = Value{Arr: make([]float64, ln)}
		case opLen:
			if f[in.a].Arr == nil {
				panic(fmt.Sprintf("%s: len of non-array", code.poss[in.pos]))
			}
			f[in.b] = Value{Num: float64(len(f[in.a].Arr))}

		case opMath1:
			v := num(f[in.a], code.poss[in.pos], mathArgWhats[in.d])
			var out float64
			switch mathFn(in.d) {
			case mathSqrt:
				out = math.Sqrt(v)
			case mathLog:
				out = math.Log(v)
			case mathLog2:
				out = math.Log2(v)
			case mathExp:
				out = math.Exp(v)
			case mathFloor:
				out = math.Floor(v)
			case mathCeil:
				out = math.Ceil(v)
			case mathAbs:
				out = math.Abs(v)
			}
			f[in.b] = Value{Num: out}
		case opMath2:
			what := mathArgWhats[in.d]
			v0 := num(f[in.a], code.poss[in.pos], what)
			v1 := num(f[in.b], code.poss[in.pos], what)
			var out float64
			switch mathFn(in.d) {
			case mathMin:
				out = math.Min(v0, v1)
			case mathMax:
				out = math.Max(v0, v1)
			case mathPow:
				out = math.Pow(v0, v1)
			}
			f[in.c] = Value{Num: out}
		case opRand:
			f[in.a] = Value{Num: p.Rand()}
		case opRank:
			f[in.a] = Value{Num: float64(p.Rank)}
		case opSize:
			f[in.a] = Value{Num: float64(p.NP())}
		case opCompute:
			pos := code.poss[in.pos]
			b := in.a
			n0 := num(f[b], pos, "compute argument")
			n1 := num(f[b+1], pos, "compute argument")
			n2 := num(f[b+2], pos, "compute argument")
			n3 := num(f[b+3], pos, "compute argument")
			p.Compute(n0, n1, n2, n3)
			f[in.c] = Value{}
		case opMPI:
			m.mpi(code, f, in)
		case opPrint:
			m.print(code, f, in)

		case opCall:
			cs := &code.calls[in.a]
			child := l.calls[in.a]
			if child == nil {
				panic(fmt.Sprintf("%s: no PSG instance for call to %q (site %d in %s)",
					cs.pos, cs.callee, cs.node, l.inst.Path))
			}
			f[in.c] = m.call(child, f[in.b:in.b+cs.argc])
		case opCallInd:
			is := &code.indirects[in.a]
			fnv := f[in.d]
			if fnv.Fn == "" {
				panic(fmt.Sprintf("%s: %q does not hold a function reference", is.pos, is.varName))
			}
			child := l.indirect[in.a][fnv.Fn]
			if child == nil {
				child = m.r.Prog.resolveSlow(l, in.a, fnv.Fn)
			}
			if got, want := is.argc, int32(len(child.code.fn.Params)); got != want {
				panic(fmt.Sprintf("vm: %s expects %d args, got %d", child.code.fn.Name, want, got))
			}
			if m.r.OnIndirect != nil {
				m.r.OnIndirect(p.Rank, l.inst, is.node, fnv.Fn)
			}
			f[in.c] = m.call(child, f[in.b:in.b+is.argc])

		case opStrPanic:
			panic(fmt.Sprintf("%s: string literal outside print", code.poss[in.pos]))
		default:
			panic(fmt.Sprintf("vm: unknown opcode %d", in.op))
		}
	}
	return Value{}
}

// mpi dispatches one MPI builtin. Argument conversion order and error
// roles match the interpreter's evalMPI exactly.
//
//scalana:hot
func (m *machine) mpi(code *Code, f []Value, in instr) {
	pos := code.poss[in.pos]
	o := mpiOp(in.d)
	what := mpiArgWhats[o]
	b := in.a
	p := m.p
	switch o {
	case mpiSend:
		a0 := int(num(f[b], pos, what))
		a1 := int(num(f[b+1], pos, what))
		a2 := num(f[b+2], pos, what)
		p.Send(a0, a1, a2)
		f[in.c] = Value{}
	case mpiRecv:
		a0 := int(num(f[b], pos, what))
		a1 := int(num(f[b+1], pos, what))
		a2 := num(f[b+2], pos, what)
		p.Recv(a0, a1, a2)
		f[in.c] = Value{}
	case mpiRecvAny:
		a0 := int(num(f[b], pos, what))
		a1 := num(f[b+1], pos, what)
		f[in.c] = Value{Num: float64(p.RecvAny(a0, a1))}
	case mpiIsend:
		a0 := int(num(f[b], pos, what))
		a1 := int(num(f[b+1], pos, what))
		a2 := num(f[b+2], pos, what)
		f[in.c] = Value{Num: float64(p.Isend(a0, a1, a2).ID())}
	case mpiIrecv:
		a0 := int(num(f[b], pos, what))
		a1 := int(num(f[b+1], pos, what))
		a2 := num(f[b+2], pos, what)
		f[in.c] = Value{Num: float64(p.Irecv(a0, a1, a2).ID())}
	case mpiIrecvAny:
		a0 := int(num(f[b], pos, what))
		a1 := num(f[b+1], pos, what)
		f[in.c] = Value{Num: float64(p.IrecvAny(a0, a1).ID())}
	case mpiWait:
		p.Wait(int(num(f[b], pos, what)))
		f[in.c] = Value{}
	case mpiWaitall:
		p.Waitall()
		f[in.c] = Value{}
	case mpiSendrecv:
		a0 := int(num(f[b], pos, what))
		a1 := int(num(f[b+1], pos, what))
		a2 := num(f[b+2], pos, what)
		a3 := int(num(f[b+3], pos, what))
		a4 := int(num(f[b+4], pos, what))
		a5 := num(f[b+5], pos, what)
		p.Sendrecv(a0, a1, a2, a3, a4, a5)
		f[in.c] = Value{}
	case mpiBarrier:
		p.Barrier()
		f[in.c] = Value{}
	case mpiBcast:
		a0 := int(num(f[b], pos, what))
		a1 := num(f[b+1], pos, what)
		p.Bcast(a0, a1)
		f[in.c] = Value{}
	case mpiReduce:
		a0 := int(num(f[b], pos, what))
		a1 := num(f[b+1], pos, what)
		p.Reduce(a0, a1)
		f[in.c] = Value{}
	case mpiAllreduce:
		p.Allreduce(num(f[b], pos, what))
		f[in.c] = Value{}
	case mpiAlltoall:
		p.Alltoall(num(f[b], pos, what))
		f[in.c] = Value{}
	case mpiAllgather:
		p.Allgather(num(f[b], pos, what))
		f[in.c] = Value{}
	default:
		panic(fmt.Sprintf("vm: unhandled MPI builtin %q", mpiNames[o]))
	}
}

// print mirrors interp's evalPrint output format; with a nil Stdout the
// arguments were still evaluated by the preceding instructions.
func (m *machine) print(code *Code, f []Value, in instr) {
	f[in.b] = Value{}
	if m.r.Stdout == nil {
		return
	}
	spec := &code.prints[in.a]
	out := fmt.Sprintf("[rank %d]", m.p.Rank)
	for _, part := range spec.parts {
		if part.isStr {
			out += " " + part.str
		} else {
			out += " " + f[part.reg].String()
		}
	}
	fmt.Fprintln(m.r.Stdout, out)
}
