// Package kernels generates the benchmark's guest programs from a seed,
// each with a Go reference of its checksum computed over the same
// generated data.
//
// Two shapes cover the emulator's two regimes. DSP is an integer FIR
// filter whose tap loop is fully unrolled, so its translated blocks are
// long runs of loads, multiplies and adds: op execution and the RAM fast
// path dominate. Branchy is a table-driven state machine whose
// data-dependent indirect jumps land on thousands of short handler
// blocks, more than the emulator's 1024-entry jump cache holds: block
// transitions dominate. The seed changes data and constants only, never
// the instruction mix, so the figures of different seeds are comparable.
package kernels

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kernel is one generated guest program.
type Kernel struct {
	Name   string
	Source string         // assembly body; the platform prelude is prepended by callers
	Bounds map[string]int // loop bounds keyed by loop-head label, for WCET analysis
	Expect uint32         // checksum the program writes to the syscon exit register
	Budget uint64         // instruction budget that safely covers the run
}

// DSPShape sizes a DSP kernel.
type DSPShape struct {
	Taps    int // unrolled taps per output sample
	Outputs int // output samples per pass
	Passes  int // passes over the sample buffer
}

// Long is the DSP shape of the long guest runs: about 5.9M instructions.
var Long = DSPShape{Taps: 16, Outputs: 512, Passes: 160}

// Short is the DSP shape of campaign and service jobs: about 4.6k
// instructions.
var Short = DSPShape{Taps: 8, Outputs: 48, Passes: 2}

const (
	lcgMul = 1664525
	lcgAdd = 1013904223
)

// DSP generates an integer FIR kernel of the given shape. The seed picks
// the sample data and the filter coefficients.
func DSP(seed int64, sh DSPShape) Kernel {
	rng := rand.New(rand.NewSource(seed))
	dataSeed := rng.Uint32() & 0x7fffffff
	coef := make([]int32, sh.Taps)
	for i := range coef {
		coef[i] = int32(rng.Intn(17)) - 8
	}
	n := sh.Outputs + sh.Taps

	var b strings.Builder
	fmt.Fprintf(&b, `
_start:
	la t0, buf
	li t1, %d
	li t2, %d
	li t3, %d
	li t4, %d
fill:
	mul t2, t2, t3
	add t2, t2, t4
	sw t2, 0(t0)
	addi t0, t0, 4
	addi t1, t1, -1
	bnez t1, fill
	la t0, buf
	li t1, %d
sext:
	lw t2, 0(t0)
	srai t2, t2, 16
	sw t2, 0(t0)
	addi t0, t0, 4
	addi t1, t1, -1
	bnez t1, sext
	li a0, 0
	li s6, %d
pass:
	la a1, buf
	la a2, coef
	li s7, %d
out:
	li s3, 0
`, n, dataSeed, lcgMul, lcgAdd, n, sh.Passes, sh.Outputs)
	for k := 0; k < sh.Taps; k++ {
		fmt.Fprintf(&b, "\tlw t0, %d(a1)\n\tlw t1, %d(a2)\n\tmul t0, t0, t1\n\tadd s3, s3, t0\n", 4*k, 4*k)
	}
	fmt.Fprintf(&b, `	add a0, a0, s3
	slli t2, a0, 5
	xor a0, a0, t2
	addi a1, a1, 4
	addi s7, s7, -1
	bnez s7, out
	addi s6, s6, -1
	bnez s6, pass
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
	.align 2
coef:
`)
	for _, c := range coef {
		fmt.Fprintf(&b, "\t.word %d\n", c)
	}
	fmt.Fprintf(&b, "buf:\t.space %d\n", 4*n)

	// Go reference over the same data.
	x := make([]int32, n)
	v := dataSeed
	for i := range x {
		v = v*lcgMul + lcgAdd
		x[i] = int32(v) >> 16
	}
	var acc uint32
	for p := 0; p < sh.Passes; p++ {
		for i := 0; i < sh.Outputs; i++ {
			var y int32
			for k, c := range coef {
				y += x[i+k] * c
			}
			acc += uint32(y)
			acc ^= acc << 5
		}
	}
	insts := uint64(sh.Passes) * uint64(sh.Outputs) * uint64(4*sh.Taps+7)
	return Kernel{
		Name:   fmt.Sprintf("dsp%d", sh.Taps),
		Source: b.String(),
		Bounds: map[string]int{"fill": n, "sext": n, "pass": sh.Passes, "out": sh.Outputs},
		Expect: acc,
		Budget: 2*insts + 20*uint64(n) + 1000,
	}
}

// BranchyShape sizes a branchy kernel.
type BranchyShape struct {
	Handlers int // distinct handlers; a power of two up to 4096
	Steps    int // state-machine steps
}

// Wide is the branchy shape of the long guest runs: 2048 handlers of
// three blocks each, about 3.4M instructions.
var Wide = BranchyShape{Handlers: 2048, Steps: 240_000}

// branchyFlowSeed fixes the branchy kernel's control flow.
const branchyFlowSeed = 0x5ca1e4ed9e

// Branchy generates the table-driven state machine: each step advances
// an LCG, indexes a jump table with its top bits and jumps to that
// handler, which xors a constant into the accumulator and conditionally
// adds another, depending on one of the generator's middle bits.
func Branchy(seed int64, sh BranchyShape) Kernel {
	// The control flow comes from a fixed generator start and fixed
	// branch masks, the same for every seed: the order handlers run in
	// and which branches are taken decide how fast the engines run
	// (trace formation, host branch prediction), so letting the seed
	// choose them would make the figures of different seeds differ. The
	// seed picks the constants the handlers fold into the checksum.
	flow := rand.New(rand.NewSource(branchyFlowSeed))
	rng := rand.New(rand.NewSource(seed))
	start := flow.Uint32()
	shift := 32
	for h := sh.Handlers; h > 1; h >>= 1 {
		shift--
	}
	xk := make([]int32, sh.Handlers)
	mk := make([]uint32, sh.Handlers)
	ak := make([]int32, sh.Handlers)
	for i := range xk {
		xk[i] = int32(rng.Intn(4096)) - 2048
		mk[i] = 1 << uint(flow.Intn(9))
		ak[i] = int32(rng.Intn(4096)) - 2048
	}

	var b strings.Builder
	fmt.Fprintf(&b, `
_start:
	la s4, table
	li s1, %d
	li s2, %d
	li s3, %d
	li s5, %d
	li a0, 0
step:
	mul s1, s1, s2
	add s1, s1, s3
	srli t2, s1, 12
	srli t0, s1, %d
	slli t0, t0, 2
	add t0, t0, s4
	lw t1, 0(t0)
	jr t1
next:
	addi s5, s5, -1
	bnez s5, step
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`, int32(start), lcgMul, lcgAdd, sh.Steps, shift)
	for i := range xk {
		fmt.Fprintf(&b, "h%d:\n\txori a0, a0, %d\n\tandi t3, t2, %d\n\tbeqz t3, s%d\n\taddi a0, a0, %d\ns%d:\n\tj next\n",
			i, xk[i], mk[i], i, ak[i], i)
	}
	b.WriteString("\t.align 2\ntable:\n")
	for i := range xk {
		fmt.Fprintf(&b, "\t.word h%d\n", i)
	}

	x, acc := start, uint32(0)
	for s := 0; s < sh.Steps; s++ {
		x = x*lcgMul + lcgAdd
		h := x >> uint(shift)
		acc ^= uint32(xk[h])
		if x>>12&mk[h] != 0 {
			acc += uint32(ak[h])
		}
	}
	return Kernel{
		Name:   fmt.Sprintf("branchy%d", sh.Handlers),
		Source: b.String(),
		Expect: acc,
		Budget: 20*uint64(sh.Steps) + 1000,
	}
}
