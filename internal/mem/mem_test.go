package mem

import (
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/timeline"
)

func TestStoreZeroDefault(t *testing.T) {
	s := NewStore()
	b := s.ReadBlock(0x1000)
	if !b.IsZero() {
		t.Error("unwritten block should read as zero")
	}
	if s.Populated() != 0 {
		t.Error("read must not populate the store")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	var b Block
	for i := range b {
		b[i] = byte(i * 3)
	}
	s.WriteBlock(0x40, b)
	if got := s.ReadBlock(0x40); got != b {
		t.Error("round trip mismatch")
	}
	if s.Populated() != 1 {
		t.Errorf("Populated = %d, want 1", s.Populated())
	}
}

func TestStoreUnalignedPanics(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	s.ReadBlock(0x41)
}

func TestStoreSnapshotIndependence(t *testing.T) {
	s := NewStore()
	s.WriteBlock(0, Block{1})
	snap := s.Snapshot()
	s.WriteBlock(0, Block{2})
	if snap.ReadBlock(0)[0] != 1 {
		t.Error("snapshot was mutated by a later write")
	}
}

func TestStoreCorruptByte(t *testing.T) {
	s := NewStore()
	s.WriteBlock(0, Block{0: 0xF0})
	old := s.CorruptByte(0, 0, 0x01)
	if old[0] != 0xF0 {
		t.Errorf("CorruptByte returned %#x, want old value 0xF0", old[0])
	}
	if got := s.ReadBlock(0)[0]; got != 0xF1 {
		t.Errorf("corrupted byte = %#x, want 0xF1", got)
	}
}

func TestBlockIsZero(t *testing.T) {
	var b Block
	if !b.IsZero() {
		t.Error("zero block not recognised")
	}
	b[63] = 1
	if b.IsZero() {
		t.Error("nonzero block reported zero")
	}
}

func TestControllerFunctionalRoundTrip(t *testing.T) {
	c := NewController(DefaultConfig())
	var b Block
	b[0] = 0xAB
	done := c.Write(0, 0x1000, b, CatData)
	if done <= 0 {
		t.Fatal("write completion time must be positive")
	}
	got, _ := c.Read(done, 0x1000, CatData)
	if got != b {
		t.Error("controller read returned wrong data")
	}
}

func TestControllerTiming(t *testing.T) {
	cfg := Config{Banks: 1, ReadLatency: 150 * sim.Nanosecond, WriteLatency: 500 * sim.Nanosecond, BusSlot: 5 * sim.Nanosecond}
	c := NewController(cfg)
	// Single bank: two writes serialise on the bank.
	d1 := c.Write(0, 0, Block{}, CatData)
	if d1 != 505*sim.Nanosecond {
		t.Fatalf("first write done = %v, want 505ns", d1)
	}
	d2 := c.Write(0, 64, Block{}, CatData)
	if d2 != 1005*sim.Nanosecond {
		t.Fatalf("second write done = %v, want 1005ns (bank conflict)", d2)
	}
}

func TestControllerBankParallelism(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(cfg)
	// Issue as many writes as banks to distinct banks: they should overlap,
	// so total drain time is far below the serialised sum.
	n := cfg.Banks
	seen := make(map[int]bool)
	addr := uint64(0)
	issued := 0
	for issued < n && addr < 1<<30 {
		bk := bankOf(addr, c.Banks())
		if !seen[bk] {
			seen[bk] = true
			c.Write(0, addr, Block{}, CatData)
			issued++
		}
		addr += BlockSize
	}
	if issued != n {
		t.Fatalf("could not find %d distinct banks", n)
	}
	serialised := sim.Time(n) * cfg.WriteLatency
	if c.LastDone() >= serialised {
		t.Errorf("LastDone = %v, want < serialised %v (banks must overlap)", c.LastDone(), serialised)
	}
}

func TestControllerStridedAccessesSpreadAcrossBanks(t *testing.T) {
	// The paper's worst-case fill uses a 16 KB stride; the bank hash must
	// still spread such accesses over many banks.
	c := NewController(DefaultConfig())
	banks := make(map[int]int)
	const stride = 16 * 1024
	for i := 0; i < 1024; i++ {
		banks[bankOf(uint64(i)*stride, c.Banks())]++
	}
	if len(banks) < c.cfg.Banks/2 {
		t.Errorf("16KB-strided accesses hit only %d/%d banks", len(banks), c.cfg.Banks)
	}
}

func TestControllerCounting(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Write(0, 0, Block{}, CatData)
	c.Write(0, 64, Block{}, CatCounter)
	c.Write(0, 128, Block{}, CatData)
	c.Read(0, 0, CatTree)
	if c.Writes().Get(string(CatData)) != 2 {
		t.Errorf("data writes = %d, want 2", c.Writes().Get(string(CatData)))
	}
	if c.Writes().Get(string(CatCounter)) != 1 {
		t.Error("counter writes wrong")
	}
	if c.TotalReads() != 1 || c.TotalWrites() != 3 || c.TotalAccesses() != 4 {
		t.Error("totals wrong")
	}
}

func TestControllerResetStatsPreservesContent(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Write(0, 0, Block{0: 7}, CatData)
	c.ResetStats()
	if c.TotalAccesses() != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if c.LastDone() != 0 {
		t.Error("ResetStats did not clear timing")
	}
	if c.PeekRead(0)[0] != 7 {
		t.Error("ResetStats lost memory content")
	}
}

func TestControllerZeroBanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero banks did not panic")
		}
	}()
	NewController(Config{Banks: 0})
}

// TestTimelineStampsAccesses checks that every access reaches an attached
// timeline as one bus and one bank event carrying its op, category and
// address, the bank event completing when the access does.
func TestTimelineStampsAccesses(t *testing.T) {
	c := NewController(DefaultConfig())
	rec := timeline.NewRecorder(0)
	c.SetTimeline(rec)
	wdone := c.Write(0, 0x1000, Block{}, CatData)
	_, rdone := c.Read(0, 0x1040, CatCounter)
	ev := rec.Recording().Events
	if len(ev) != 4 {
		t.Fatalf("recorded %d events, want 4 (bus+bank per access)", len(ev))
	}
	want := []struct {
		kind, op, label string
		addr            uint64
	}{
		{"bus", "write", "data", 0x1000}, {"bank", "write", "data", 0x1000},
		{"bus", "read", "counter", 0x1040}, {"bank", "read", "counter", 0x1040},
	}
	for i, w := range want {
		e := ev[i]
		if e.Kind != w.kind || e.Op != w.op || e.Label != w.label || e.Addr != w.addr {
			t.Errorf("event %d = %s %s/%s %#x, want %s %s/%s %#x",
				i, e.Kind, e.Op, e.Label, e.Addr, w.kind, w.op, w.label, w.addr)
		}
	}
	if ev[1].Done != wdone || ev[3].Done != rdone {
		t.Errorf("bank completions %d/%d, want access completions %d/%d", ev[1].Done, ev[3].Done, wdone, rdone)
	}
}

// scriptInjector returns a fixed fault for one write index and records the
// stages it saw.
type scriptInjector struct {
	n      int
	at     int
	fault  Fault
	stages []string
}

func (s *scriptInjector) OnWrite(addr uint64, cat Category, b Block) Fault {
	idx := s.n
	s.n++
	if idx == s.at {
		return s.fault
	}
	if s.fault.Kind == FaultCut && idx > s.at {
		return s.fault // a cut suppresses everything after it, too
	}
	return Fault{}
}

func (s *scriptInjector) OnStage(stage string) { s.stages = append(s.stages, stage) }

func TestFaultInjectorApplication(t *testing.T) {
	pat := func(v byte) Block {
		var b Block
		for i := range b {
			b[i] = v
		}
		return b
	}
	old, new1, new2 := pat(0xAA), pat(0x11), pat(0x22)

	t.Run("drop keeps old content", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultDrop}})
		c.Write(0, 0, new1, CatData)
		if got := c.PeekRead(0); got != old {
			t.Fatalf("dropped write changed content: got %x", got[0])
		}
		if c.TotalWrites() != 2 {
			t.Fatalf("writes = %d, want 2 (the dropped write is still issued)", c.TotalWrites())
		}
	})

	t.Run("tear mixes new prefix with old suffix", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultTear, TornBytes: 8}})
		c.Write(0, 0, new1, CatData)
		got := c.PeekRead(0)
		for i := 0; i < 8; i++ {
			if got[i] != new1[i] {
				t.Fatalf("byte %d = %x, want new %x", i, got[i], new1[i])
			}
		}
		for i := 8; i < BlockSize; i++ {
			if got[i] != old[i] {
				t.Fatalf("byte %d = %x, want old %x", i, got[i], old[i])
			}
		}
	})

	t.Run("flip toggles exactly one bit", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultFlip, Byte: 5, Mask: 0x40}})
		c.Write(0, 0, new1, CatData)
		got := c.PeekRead(0)
		want := new1
		want[5] ^= 0x40
		if got != want {
			t.Fatalf("flip result = %x, want %x", got, want)
		}
	})

	t.Run("cut suppresses this and all later writes", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		c.Write(0, 64, old, CatData)
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultCut}})
		c.Write(0, 0, new1, CatData)
		c.Write(0, 64, new2, CatData)
		if got := c.PeekRead(0); got != old {
			t.Fatalf("cut write 0 landed: got %x", got[0])
		}
		if got := c.PeekRead(64); got != old {
			t.Fatalf("post-cut write landed: got %x", got[0])
		}
	})

	t.Run("nil injector and FaultNone are transparent", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		inj := &scriptInjector{at: 99} // never fires
		c.SetFaultInjector(inj)
		c.Write(0, 0, new1, CatData)
		c.SetFaultInjector(nil)
		c.Write(0, 64, new2, CatData)
		if c.PeekRead(0) != new1 || c.PeekRead(64) != new2 {
			t.Fatal("fault-free writes did not commit")
		}
	})
}

func TestMarkStageForwarding(t *testing.T) {
	c := NewController(DefaultConfig())
	c.MarkStage("ignored-without-injector") // no-op, must not panic
	inj := &scriptInjector{at: 99}
	c.SetFaultInjector(inj)
	c.MarkStage("drain:blocks")
	c.MarkStage("drain:meta-flush")
	if len(inj.stages) != 2 || inj.stages[0] != "drain:blocks" || inj.stages[1] != "drain:meta-flush" {
		t.Fatalf("stages = %v", inj.stages)
	}
}

func TestControllerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(DefaultConfig())
	c.SetMetrics(reg, "scheme", "test")
	c.Write(0, 0, Block{}, CatData)
	c.Write(0, 64, Block{}, CatCounter)
	c.Read(0, 0, CatData)
	if got := reg.Counter("horus_mem_writes_total", "category", "data", "scheme", "test").Value(); got != 1 {
		t.Errorf("data write counter = %d, want 1", got)
	}
	if got := reg.Counter("horus_mem_reads_total", "category", "data", "scheme", "test").Value(); got != 1 {
		t.Errorf("data read counter = %d, want 1", got)
	}
	if got := reg.Histogram("horus_mem_bank_wait_ps", nil, "scheme", "test").Count(); got != 3 {
		t.Errorf("bank wait observations = %d, want 3", got)
	}
	c.PublishMetrics("drain", c.LastDone())
	found := false
	for i := 0; i < c.Config().Banks; i++ {
		g := reg.Gauge("horus_mem_bank_utilization", "bank", strconv.Itoa(i), "phase", "drain", "scheme", "test")
		if g.Value() > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no bank reported positive utilization after PublishMetrics")
	}
	// Detaching stops recording without touching prior series.
	c.SetMetrics(nil)
	c.Write(0, 128, Block{}, CatData)
	if got := reg.Counter("horus_mem_writes_total", "category", "data", "scheme", "test").Value(); got != 1 {
		t.Errorf("detached controller still recorded: %d", got)
	}
}

// Property: any sequence of writes followed by reads at the same addresses
// returns the last written values (functional memory consistency).
func TestControllerWriteReadProperty(t *testing.T) {
	f := func(addrs []uint16, vals []byte) bool {
		c := NewController(Config{Banks: 4, ReadLatency: 1, WriteLatency: 1, BusSlot: 1})
		want := make(map[uint64]byte)
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		var now sim.Time
		for i := 0; i < n; i++ {
			a := uint64(addrs[i]) * BlockSize
			now = c.Write(now, a, Block{0: vals[i]}, CatData)
			want[a] = vals[i]
		}
		for a, v := range want {
			got, done := c.Read(now, a, CatData)
			now = done
			if got[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
