package lifetime

import (
	"testing"
	"testing/quick"
)

// mkLog builds a log from (kind, entry, mask, cycle, rip, upc) tuples with
// sequential Seq values.
func mkLog(evs ...Event) *Log {
	l := &Log{}
	for i, ev := range evs {
		ev.Seq = uint64(i + 1)
		l.Append(ev)
	}
	return l
}

func TestBuildWriteReadInterval(t *testing.T) {
	log := mkLog(
		Event{Kind: EvWrite, Entry: 3, Mask: 0xff, Cycle: 10},
		Event{Kind: EvRead, Entry: 3, Mask: 0xff, Cycle: 25, RIP: 7, UPC: 1, CommitSeq: 42},
	)
	a := Build(log, StructRF, 8, 8, 100)
	if len(a.Intervals) != 1 {
		t.Fatalf("intervals = %d, want 1", len(a.Intervals))
	}
	iv := a.Intervals[0]
	if iv.Start != 10 || iv.End != 25 || iv.RIP != 7 || iv.UPC != 1 || iv.EndSeq != 42 {
		t.Fatalf("interval = %+v", iv)
	}
}

func TestBuildReadToReadChains(t *testing.T) {
	// Paper Fig 3: consecutive committed reads split the lifetime into
	// separate vulnerable intervals (unlike classic ACE).
	log := mkLog(
		Event{Kind: EvWrite, Entry: 0, Mask: 1, Cycle: 5},
		Event{Kind: EvRead, Entry: 0, Mask: 1, Cycle: 10, RIP: 1},
		Event{Kind: EvRead, Entry: 0, Mask: 1, Cycle: 20, RIP: 2},
		Event{Kind: EvRead, Entry: 0, Mask: 1, Cycle: 30, RIP: 3},
	)
	a := Build(log, StructRF, 1, 8, 100)
	if len(a.Intervals) != 3 {
		t.Fatalf("intervals = %d, want 3", len(a.Intervals))
	}
	bounds := [][2]uint64{{5, 10}, {10, 20}, {20, 30}}
	for i, b := range bounds {
		if a.Intervals[i].Start != b[0] || a.Intervals[i].End != b[1] {
			t.Errorf("interval %d = (%d, %d], want (%d, %d]",
				i, a.Intervals[i].Start, a.Intervals[i].End, b[0], b[1])
		}
	}
	// Total vulnerable time equals the classic ACE single interval (5,30].
	if got := a.VulnerableByteCycles(); got != 25 {
		t.Errorf("vulnerable byte-cycles = %d, want 25", got)
	}
}

func TestDeadWriteNotVulnerable(t *testing.T) {
	log := mkLog(
		Event{Kind: EvWrite, Entry: 0, Mask: 0xff, Cycle: 5},
		Event{Kind: EvWrite, Entry: 0, Mask: 0xff, Cycle: 15}, // overwrites unread
		Event{Kind: EvRead, Entry: 0, Mask: 0xff, Cycle: 20, RIP: 1},
	)
	a := Build(log, StructRF, 1, 8, 100)
	if len(a.Intervals) != 1 {
		t.Fatalf("intervals = %d, want 1", len(a.Intervals))
	}
	if a.Intervals[0].Start != 15 {
		t.Errorf("interval start = %d, want 15 (dead segment excluded)", a.Intervals[0].Start)
	}
}

func TestInvalidateEndsLifetime(t *testing.T) {
	log := mkLog(
		Event{Kind: EvWrite, Entry: 0, Mask: 0xff, Cycle: 5},
		Event{Kind: EvInvalidate, Entry: 0, Mask: 0xff, Cycle: 15},
		Event{Kind: EvRead, Entry: 0, Mask: 0xff, Cycle: 20, RIP: 1}, // stale read: ignored
	)
	a := Build(log, StructRF, 1, 8, 100)
	if len(a.Intervals) != 0 {
		t.Fatalf("intervals = %v, want none after invalidate", a.Intervals)
	}
}

func TestPartialByteMasks(t *testing.T) {
	// Bytes 0-3 written at cycle 5, bytes 4-7 at cycle 12; a read of the
	// whole entry at 20 must produce two intervals with distinct starts.
	log := mkLog(
		Event{Kind: EvWrite, Entry: 0, Mask: 0x0f, Cycle: 5},
		Event{Kind: EvWrite, Entry: 0, Mask: 0xf0, Cycle: 12},
		Event{Kind: EvRead, Entry: 0, Mask: 0xff, Cycle: 20, RIP: 9},
	)
	a := Build(log, StructRF, 1, 8, 100)
	if len(a.Intervals) != 2 {
		t.Fatalf("intervals = %d, want 2", len(a.Intervals))
	}
	var got [2]Interval
	for _, iv := range a.Intervals {
		if iv.Start == 5 {
			got[0] = iv
		} else {
			got[1] = iv
		}
	}
	if got[0].Mask != 0x0f || got[1].Mask != 0xf0 || got[1].Start != 12 {
		t.Fatalf("intervals = %+v", a.Intervals)
	}
}

func TestWBReadAttribution(t *testing.T) {
	log := mkLog(
		Event{Kind: EvWrite, Entry: 2, Mask: ^uint64(0), Cycle: 5},
		Event{Kind: EvWBRead, Entry: 2, Mask: ^uint64(0), Cycle: 30, RIP: WBRip},
	)
	a := Build(log, StructL1D, 4, 64, 100)
	if len(a.Intervals) != 1 || a.Intervals[0].RIP != WBRip {
		t.Fatalf("intervals = %+v, want one WB-attributed", a.Intervals)
	}
	if got := a.VulnerableByteCycles(); got != 25*64 {
		t.Errorf("byte-cycles = %d, want %d", got, 25*64)
	}
}

func TestFind(t *testing.T) {
	log := mkLog(
		Event{Kind: EvWrite, Entry: 1, Mask: 0xff, Cycle: 10},
		Event{Kind: EvRead, Entry: 1, Mask: 0xff, Cycle: 20, RIP: 5},
		Event{Kind: EvRead, Entry: 1, Mask: 0x01, Cycle: 35, RIP: 6},
	)
	a := Build(log, StructRF, 4, 8, 100)

	tests := []struct {
		byteIdx int
		cycle   uint64
		wantOK  bool
		wantRIP int32
	}{
		{0, 10, false, 0}, // at the write cycle: overwritten, masked
		{0, 11, true, 5},  // inside the first interval
		{0, 20, true, 5},  // at the read cycle: consumed
		{0, 21, true, 6},  // read-to-read interval for byte 0
		{0, 35, true, 6},  //
		{0, 36, false, 0}, // after the last read
		{3, 21, false, 0}, // byte 3 has no second read
		{3, 15, true, 5},  //
		{0, 5, false, 0},  // before anything
	}
	for _, tt := range tests {
		id, ok := a.Find(1, tt.byteIdx, tt.cycle)
		if ok != tt.wantOK {
			t.Errorf("Find(byte %d, cycle %d): ok = %v, want %v", tt.byteIdx, tt.cycle, ok, tt.wantOK)
			continue
		}
		if ok && a.Intervals[id].RIP != tt.wantRIP {
			t.Errorf("Find(byte %d, cycle %d): rip = %d, want %d", tt.byteIdx, tt.cycle, a.Intervals[id].RIP, tt.wantRIP)
		}
	}
	// Other entries are unaffected.
	if _, ok := a.Find(0, 0, 15); ok {
		t.Error("entry 0 must have no intervals")
	}
}

func TestAVF(t *testing.T) {
	log := mkLog(
		Event{Kind: EvWrite, Entry: 0, Mask: 0xff, Cycle: 0},
		Event{Kind: EvRead, Entry: 0, Mask: 0xff, Cycle: 50, RIP: 1},
	)
	// 1 entry of 8 bytes vulnerable 50 of 100 cycles out of 2 entries.
	a := Build(log, StructRF, 2, 8, 100)
	if got, want := a.AVF(), 50.0*8/(2*8*100); got != want {
		t.Errorf("AVF = %v, want %v", got, want)
	}
}

// Property: for any fault position, Find agrees with a brute-force interval
// scan.
func TestFindMatchesBruteForce(t *testing.T) {
	log := mkLog(
		Event{Kind: EvWrite, Entry: 0, Mask: 0x3f, Cycle: 3},
		Event{Kind: EvRead, Entry: 0, Mask: 0x0f, Cycle: 9, RIP: 1},
		Event{Kind: EvWrite, Entry: 0, Mask: 0xf0, Cycle: 12},
		Event{Kind: EvRead, Entry: 0, Mask: 0xff, Cycle: 21, RIP: 2},
		Event{Kind: EvInvalidate, Entry: 0, Mask: 0xff, Cycle: 25},
		Event{Kind: EvWrite, Entry: 0, Mask: 0xff, Cycle: 30},
		Event{Kind: EvRead, Entry: 0, Mask: 0x80, Cycle: 40, RIP: 3},
	)
	a := Build(log, StructRF, 1, 8, 100)
	// Find's binary search needs every byte's id run End-ascending; the
	// index no longer re-sorts one that is not.
	for i := 0; i+1 < len(a.indexOff); i++ {
		run := a.indexIDs[a.indexOff[i]:a.indexOff[i+1]]
		for j := 1; j < len(run); j++ {
			if a.Intervals[run[j-1]].End > a.Intervals[run[j]].End {
				t.Fatalf("byte %d: interval %d ends after interval %d", i, run[j-1], run[j])
			}
		}
	}
	brute := func(b int, cyc uint64) (int32, bool) {
		for id, iv := range a.Intervals {
			if iv.Mask&(1<<uint(b)) != 0 && iv.Start < cyc && cyc <= iv.End {
				return int32(id), true
			}
		}
		return 0, false
	}
	f := func(b uint8, cyc uint16) bool {
		bi := int(b % 8)
		cy := uint64(cyc % 50)
		gotID, gotOK := a.Find(0, bi, cy)
		wantID, wantOK := brute(bi, cy)
		return gotOK == wantOK && (!gotOK || gotID == wantID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
