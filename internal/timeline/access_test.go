package timeline

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// access records one access the way mem.Controller does: a bus slot, then
// the bank reservation whose completion is the access's.
func access(r *Recorder, op, cat string, addr uint64, done sim.Time) {
	r.SetAccess(op, cat, addr)
	r.OnReserve("membus", "bus", 0, 0, 5, 5)
	r.OnReserve("bank00", "bank", 5, 5, done, done)
}

func accessCSV(t *testing.T, r *Recorder) []string {
	t.Helper()
	var b strings.Builder
	if err := r.Recording().WriteAccessCSV(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
}

func TestWriteAccessCSVFormat(t *testing.T) {
	r := NewRecorder(0)
	access(r, "write", "chv-data", 0x40, 505000)
	r.SetOp("mac", "chv-data-mac") // engine events are not accesses
	r.OnReserve("mac", "mac", 0, 0, 82, 160)
	access(r, "read", "recovery", 0x80, 660000)

	want := []string{
		"seq,time_ps,kind,addr,category",
		"1,505000,write,0x40,chv-data",
		"2,660000,read,0x80,recovery",
		"# events=2 dropped=0",
	}
	got := accessCSV(t, r)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("csv =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestSetOpClearsAccessAddress(t *testing.T) {
	r := NewRecorder(0)
	r.SetAccess("write", "data", 0x1000)
	r.OnReserve("bank00", "bank", 0, 0, 10, 10)
	r.SetOp("aes", "")
	r.OnReserve("aes", "aes", 10, 10, 12, 50)
	ev := r.Recording().Events
	if ev[0].Addr != 0x1000 {
		t.Errorf("access event addr = %#x, want 0x1000", ev[0].Addr)
	}
	if ev[1].Addr != 0 || ev[1].Op != "aes" {
		t.Errorf("engine event = %q addr %#x, want aes addr 0", ev[1].Op, ev[1].Addr)
	}
}

func TestWriteAccessCSVTrailerCountsDropped(t *testing.T) {
	r := NewRecorder(3) // holds one access and a half: bus, bank, bus
	for i := 0; i < 4; i++ {
		access(r, "write", "data", uint64(i)*64, sim.Time(100*(i+1)))
	}
	got := accessCSV(t, r)
	if len(got) != 3 {
		t.Fatalf("csv lines = %q, want header, 1 row, trailer", got)
	}
	if got[1] != "1,100,write,0x0,data" {
		t.Errorf("row = %q", got[1])
	}
	if got[2] != "# events=1 dropped=5" {
		t.Errorf("trailer = %q, want \"# events=1 dropped=5\"", got[2])
	}
}
