package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/vm"
)

// The blackscholes benchmark prices a portfolio of European options with
// the Black-Scholes closed form, following the PARSEC kernel (§6.2).
// The paper runs it unmodified on deterministically scheduled pthreads,
// which is why the Determinator entry point here uses dsched: the fixed
// quantization overhead it measures (~35% at a 10M-instruction quantum)
// is the experiment.

// Option holds one pricing problem.
type Option struct {
	S, K, R, V, T float64
	Call          bool
}

// GenOptions builds a deterministic portfolio.
func GenOptions(n int) []Option {
	f := GenF64(5*n, 0xB5)
	out := make([]Option, n)
	for i := range out {
		out[i] = Option{
			S:    50 + 100*f[5*i],
			K:    50 + 100*f[5*i+1],
			R:    0.01 + 0.09*f[5*i+2],
			V:    0.1 + 0.5*f[5*i+3],
			T:    0.25 + 1.75*f[5*i+4],
			Call: i%2 == 0,
		}
	}
	return out
}

// cndf is the cumulative normal distribution approximation used by the
// PARSEC kernel (Abramowitz & Stegun 26.2.17).
func cndf(x float64) float64 {
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}
	k := 1 / (1 + 0.2316419*x)
	poly := k * (0.319381530 + k*(-0.356563782+k*(1.781477937+k*(-1.821255978+k*1.330274429))))
	v := 1 - 1/math.Sqrt(2*math.Pi)*math.Exp(-x*x/2)*poly
	if sign {
		return 1 - v
	}
	return v
}

// Price computes one option's Black-Scholes value.
func Price(o Option) float64 {
	d1 := (math.Log(o.S/o.K) + (o.R+o.V*o.V/2)*o.T) / (o.V * math.Sqrt(o.T))
	d2 := d1 - o.V*math.Sqrt(o.T)
	if o.Call {
		return o.S*cndf(d1) - o.K*math.Exp(-o.R*o.T)*cndf(d2)
	}
	return o.K*math.Exp(-o.R*o.T)*cndf(-d2) - o.S*cndf(-d1)
}

// bsTicksPerOption approximates the instruction cost of one pricing.
const bsTicksPerOption = 200

// ChecksumF64 folds float results into a stable integer checksum.
func ChecksumF64(v []float64) uint64 {
	var sum uint64
	for i, x := range v {
		sum += math.Float64bits(x) * uint64(i+1)
	}
	return sum
}

// optionsPerSlot is how the option data is laid out in shared memory:
// 6 float64 words per option (S, K, R, V, T, call-flag).
const optionWords = 6

func writeOptions(rt *core.RT, opts []Option) vm.Addr {
	buf := make([]float64, optionWords*len(opts))
	for i, o := range opts {
		c := 0.0
		if o.Call {
			c = 1.0
		}
		copy(buf[optionWords*i:], []float64{o.S, o.K, o.R, o.V, o.T, c})
	}
	addr := rt.Alloc(uint64(8*len(buf)), vm.PageSize)
	rt.Env().WriteF64s(addr, buf)
	return addr
}

// BlackscholesDsched prices the portfolio on threads legacy-API threads
// under the deterministic scheduler with the default quantum.
func BlackscholesDsched(rt *core.RT, threads, size int) uint64 {
	return BlackscholesQuantum(rt, threads, size, dsched.DefaultQuantum)
}

// BlackscholesQuantum is BlackscholesDsched with an explicit quantum,
// for the quantum-overhead ablation.
func BlackscholesQuantum(rt *core.RT, threads, size int, quantum int64) uint64 {
	v, _ := BlackscholesSched(rt, threads, size, dsched.Config{Quantum: quantum})
	return v
}

// BlackscholesSched prices the portfolio under an explicitly configured
// deterministic scheduler and also returns the scheduler's round
// statistics — the entry point of the dsched round-engine experiment.
func BlackscholesSched(rt *core.RT, threads, size int, cfg dsched.Config) (uint64, dsched.Stats) {
	opts := GenOptions(size)
	data := writeOptions(rt, opts)
	prices := rt.Alloc(uint64(8*size), vm.PageSize)
	s, err := dsched.New(rt, cfg)
	if err != nil {
		panic(err)
	}
	if err := s.Run(threads, func(t *dsched.Thread) {
		lo, hi := stripe(size, threads, t.ID)
		if lo == hi {
			return
		}
		env := t.Env()
		in := make([]float64, optionWords*(hi-lo))
		env.ReadF64s(data+vm.Addr(8*optionWords*lo), in)
		out := make([]float64, hi-lo)
		for i := range out {
			w := in[optionWords*i : optionWords*i+optionWords]
			out[i] = Price(Option{S: w[0], K: w[1], R: w[2], V: w[3], T: w[4], Call: w[5] != 0})
			env.Tick(bsTicksPerOption)
		}
		env.WriteF64s(prices+vm.Addr(8*lo), out)
	}); err != nil {
		panic(err)
	}
	buf := make([]float64, size)
	rt.Env().ReadF64s(prices, buf)
	return ChecksumF64(buf), s.Stats()
}

// BlackscholesDet prices the portfolio on native private-workspace
// threads (the "ported to the native API" alternative §6.2 mentions,
// which eliminates the scheduler's quantization overhead).
func BlackscholesDet(rt *core.RT, threads, size int) uint64 {
	opts := GenOptions(size)
	data := writeOptions(rt, opts)
	prices := rt.Alloc(uint64(8*size), vm.PageSize)
	if _, err := rt.ParallelDo(threads, func(t *core.Thread) uint64 {
		lo, hi := stripe(size, threads, t.ID)
		if lo == hi {
			return 0
		}
		env := t.Env()
		in := make([]float64, optionWords*(hi-lo))
		env.ReadF64s(data+vm.Addr(8*optionWords*lo), in)
		out := make([]float64, hi-lo)
		for i := range out {
			w := in[optionWords*i : optionWords*i+optionWords]
			out[i] = Price(Option{S: w[0], K: w[1], R: w[2], V: w[3], T: w[4], Call: w[5] != 0})
			env.Tick(bsTicksPerOption)
		}
		env.WriteF64s(prices+vm.Addr(8*lo), out)
		return 0
	}); err != nil {
		panic(err)
	}
	buf := make([]float64, size)
	rt.Env().ReadF64s(prices, buf)
	return ChecksumF64(buf)
}
