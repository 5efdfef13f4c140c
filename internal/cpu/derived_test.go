package cpu

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"merlin/internal/isa"
	"merlin/internal/lifetime"
)

// checkDerived recomputes the pipeline's derived state — the executing
// bitmap, the issue-queue records and the static attributes cached in ROB
// records — from the ROB and the static µop table, and reports the first
// disagreement. It lives in a test file so production code carries no
// self-check hook.
func (c *Core) checkDerived() error {
	var executing [len(c.executing)]uint64
	var iq []iqEntry
	for i, slot := 0, c.robHead; i < c.robLen; i, slot = i+1, ringNext(slot, len(c.rob)) {
		e := &c.rob[slot]
		kind, last := isa.UopNop, true
		if e.uop != badUop {
			kind, last = c.uops[e.uop].Kind, e.uop+1 == c.uopFirst[e.rip+1]
		}
		if e.kind != kind || e.last != last {
			return fmt.Errorf("cycle %d: ROB slot %d caches kind %d last %v, static table says %d %v", c.cycle, slot, e.kind, e.last, kind, last)
		}
		switch e.state {
		case stExecuting:
			executing[slot>>6] |= 1 << (uint(slot) & 63)
		case stWaiting:
			iq = append(iq, iqEntry{slot: int16(slot), src1: e.src1, src2: e.src2, fu: fuOf[e.kind]})
		}
	}
	if executing != c.executing {
		return fmt.Errorf("cycle %d: executing set %x, ROB says %x", c.cycle, c.executing, executing)
	}
	if !slices.Equal(iq, c.iq) {
		return fmt.Errorf("cycle %d: issue queue %v, ROB says %v", c.cycle, c.iq, iq)
	}
	if c.dqHead > c.dqTail || c.dqTail-c.dqHead > len(c.decodeQ) {
		return fmt.Errorf("cycle %d: decode queue head %d tail %d in a ring of %d", c.cycle, c.dqHead, c.dqTail, len(c.decodeQ))
	}
	return nil
}

// runChecked is Core.Run with checkDerived every 64 cycles.
func runChecked(t testing.TB, c *Core, maxCycles uint64) RunResult {
	t.Helper()
	for c.halted == Running && c.cycle < maxCycles {
		c.Step()
		if c.cycle%64 == 0 {
			if err := c.checkDerived(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c.Run(maxCycles)
}

// TestRecordLayouts pins what the hot records are allowed to cost and what
// lets them be cloned by memmove and compared as bytes: bounded size, no
// pointer, and no padding (a padding byte is not a field, so byte equality
// would compare something field equality does not).
func TestRecordLayouts(t *testing.T) {
	for _, tc := range []struct {
		v       any
		maxSize uintptr
	}{
		{robEntry{}, 128},
		{pendingUop{}, 32},
		{iqEntry{}, 8},
	} {
		typ := reflect.TypeOf(tc.v)
		if typ.Size() > tc.maxSize {
			t.Errorf("%v is %d bytes, want <= %d", typ, typ.Size(), tc.maxSize)
		}
		var fields uintptr
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch k := f.Type.Kind(); {
			case k == reflect.Bool, reflect.Int <= k && k <= reflect.Uint64:
				fields += f.Type.Size()
			default:
				t.Errorf("%v.%s is a %v: records hold only integers and bools", typ, f.Name, k)
			}
		}
		if fields != typ.Size() {
			t.Errorf("%v: fields sum to %d bytes of %d: the record has padding", typ, fields, typ.Size())
		}
	}
}

// Every field of Core is either machine state, which cloneInto must copy
// over whatever the destination shell held, or an observation harness,
// which a clone must not inherit. A new field fails
// TestCloneCoversEveryField until it is put in one of the lists.
var (
	coreClonedFields = []string{
		"Cfg", "prog", "uops", "uopFirst",
		"dmem", "imem", "l1i", "l1d", "l2",
		"cycle", "seqGen", "halted",
		"regVal", "regReady", "rat", "freeList",
		"rob", "robHead", "robLen", "executing", "iq",
		"sq", "sqHead", "sqLen", "lqLen", "drainBusyUntil",
		"fetchPC", "fetchHalted", "fetchReadyAt", "chargedLine",
		"decodeQ", "dqHead", "dqTail", "pred",
		"curTemps", "tempAcc", "curTempCount", "lastSQ",
		"output", "excLog", "committedInsts", "committedUops", "lastCommitAt",
		"archRegs", "stats", "stored",
	}
	coreNotMachineState = []string{"witness", "mutate", "watch", "tracer", "reads"}
)

func TestCloneCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Core{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if slices.Contains(coreClonedFields, name) == slices.Contains(coreNotMachineState, name) {
			t.Errorf("Core.%s must be in exactly one of coreClonedFields and coreNotMachineState", name)
		}
	}
	for _, name := range slices.Concat(coreClonedFields, coreNotMachineState) {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("Core has no field %s: stale classification", name)
		}
	}

	// Clone over a shell that differs from the source everywhere a run can
	// make it differ, with every harness attached: afterwards each cloned
	// field must hold the source's value and each harness must be gone.
	src := stateTestCore(t)
	src.Clone() // freeze, as every pooled clone's source is
	shell := stateTestCore(t)
	shell.FlipBit(lifetime.StructRF, 3, 17)
	for i := 0; i < 300; i++ {
		shell.Step()
	}
	shell.witness = func(RetireEvent) {}
	shell.mutate = func(_ uint64, _ isa.Op, r uint64) uint64 { return r }
	shell.tracer = lifetime.NewTracer(lifetime.StructRF)
	shell.reads = make([]uopReads, len(shell.rob))
	src.cloneInto(shell)

	field := func(c *Core, name string) reflect.Value {
		f := reflect.ValueOf(c).Elem().FieldByName(name)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	for _, name := range coreClonedFields {
		a, b := field(src, name), field(shell, name)
		if a.Kind() == reflect.Pointer && name != "prog" {
			if a.Pointer() == b.Pointer() {
				t.Errorf("Core.%s: clone shares the source's %v", name, a.Type())
			}
			continue // pointees are compared by StateEqual below
		}
		if a.Kind() == reflect.Slice && a.Len() == 0 && b.Len() == 0 {
			continue // nil and empty are the same state
		}
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("Core.%s not copied by cloneInto", name)
		}
	}
	for _, name := range coreNotMachineState {
		if !field(shell, name).IsZero() {
			t.Errorf("Core.%s survived cloneInto", name)
		}
	}
	if !StateEqual(src, shell) {
		t.Error("shell not state-equal to its source after cloneInto")
	}
	if err := shell.checkDerived(); err != nil {
		t.Error(err)
	}
}
