// Package workloads provides the benchmark programs of the evaluation: ten
// MiBench-like kernels (run to completion, §4.3) and ten SPEC CPU2006-like
// kernels (used for the speedup study of Fig 12 and the truncated-run
// accuracy of Table 4), each written in µx64 assembly with deterministic
// baked-in inputs and paired with a pure-Go reference model that predicts
// the exact committed output stream. The reference models double as
// end-to-end correctness oracles for the simulator.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"merlin/internal/asm"
	"merlin/internal/cpu"
	"merlin/internal/isa"
)

// Workload is one benchmark kernel.
type Workload struct {
	Name        string
	Suite       string // "mibench" or "spec"
	Description string

	source func() string   // generates the assembly (inputs baked in)
	ref    func() []uint64 // pure-Go model of the expected output

	once sync.Once
	prog *isa.Program
}

// Program assembles the workload (cached; workload sources are static).
func (w *Workload) Program() *isa.Program {
	w.once.Do(func() {
		w.prog = asm.MustAssemble(w.Name, w.source())
	})
	return w.prog
}

// Reference returns the expected committed output stream.
func (w *Workload) Reference() []uint64 { return w.ref() }

// NewCore builds a fresh core running this workload.
func (w *Workload) NewCore(cfg cpu.Config) *cpu.Core {
	return cpu.New(cfg, w.Program())
}

var registry = map[string]*Workload{}

func register(w *Workload) *Workload {
	if _, dup := registry[w.Name]; dup {
		panic("workloads: duplicate " + w.Name)
	}
	registry[w.Name] = w
	return w
}

// Get returns a workload by name.
func Get(name string) (*Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names(""))
	}
	return w, nil
}

// MustGet is Get for known-constant names.
func MustGet(name string) *Workload {
	w, err := Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Names lists registered workloads for a suite ("" = all), sorted.
func Names(suite string) []string {
	var out []string
	for n, w := range registry {
		if suite == "" || w.Suite == suite {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// MiBench returns the ten MiBench-like workloads in the paper's order.
func MiBench() []*Workload {
	names := []string{"susan_c", "susan_s", "susan_e", "stringsearch", "djpeg",
		"sha", "fft", "qsort", "cjpeg", "caes"}
	out := make([]*Workload, len(names))
	for i, n := range names {
		out[i] = MustGet(n)
	}
	return out
}

// SPEC returns the ten SPEC-like workloads in the paper's order.
func SPEC() []*Workload {
	names := []string{"bzip2", "gcc", "mcf", "gobmk", "hmmer",
		"sjeng", "libquantum", "h264ref", "omnetpp", "astar"}
	out := make([]*Workload, len(names))
	for i, n := range names {
		out[i] = MustGet(n)
	}
	return out
}

// --- input generation helpers (shared by sources and reference models) ---

// xorshift64 is the deterministic input generator; sources bake its output
// into .data sections and reference models regenerate the identical bytes.
func xorshift64(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

// genBytes produces n pseudo-random bytes from seed.
func genBytes(seed uint64, n int) []byte {
	rng := xorshift64(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng() >> 33)
	}
	return out
}

// genWords produces n pseudo-random 64-bit words from seed, bounded below
// limit when limit > 0.
func genWords(seed uint64, n int, limit uint64) []uint64 {
	rng := xorshift64(seed)
	out := make([]uint64, n)
	for i := range out {
		v := rng()
		if limit > 0 {
			v %= limit
		}
		out[i] = v
	}
	return out
}

// byteData renders a labelled .byte block.
func byteData(label string, vals []byte) string {
	s := label + ":\n"
	for i := 0; i < len(vals); i += 16 {
		end := min(i+16, len(vals))
		s += "\t.byte "
		for j := i; j < end; j++ {
			if j > i {
				s += ", "
			}
			s += fmt.Sprintf("%d", vals[j])
		}
		s += "\n"
	}
	return s
}

// wordData renders a labelled .word block.
func wordData(label string, vals []uint64) string {
	s := label + ":\n"
	for i := 0; i < len(vals); i += 4 {
		end := min(i+4, len(vals))
		s += "\t.word "
		for j := i; j < end; j++ {
			if j > i {
				s += ", "
			}
			s += fmt.Sprintf("%d", int64(vals[j]))
		}
		s += "\n"
	}
	return s
}

// mix is the order-sensitive checksum used by the kernels' output stages:
// h = h*31 + x. The assembly computes it with muli.
func mix(h, x uint64) uint64 { return h*31 + x }

// sortedSignature sorts a copy of vals ascending and returns the output
// signature sorting kernels emit: the mix-checksum over the sorted order,
// then the minimum and maximum element. Degenerate inputs are defined,
// not panics: an empty slice yields zero min/max, a single element is its
// own min and max.
func sortedSignature(vals []uint64) []uint64 {
	a := append([]uint64(nil), vals...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	h := uint64(1)
	for _, v := range a {
		h = mix(h, v)
	}
	var lo, hi uint64
	if len(a) > 0 {
		lo, hi = a[0], a[len(a)-1]
	}
	return []uint64{h, lo, hi}
}

// itoa renders a constant for splicing into assembly sources.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
