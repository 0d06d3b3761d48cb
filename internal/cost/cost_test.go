package cost

import "testing"

func TestMeterAccumulates(t *testing.T) {
	var m Meter
	m.Charge(10)
	m.ChargeN(3, 4)
	if m.Total() != 22 {
		t.Fatalf("Total = %d", m.Total())
	}
}

func TestStopwatch(t *testing.T) {
	var m Meter
	m.Charge(5)
	sw := NewStopwatch(&m)
	m.Charge(7)
	if sw.Elapsed() != 7 {
		t.Fatalf("Elapsed = %d", sw.Elapsed())
	}
}

func TestSecondsAndRate(t *testing.T) {
	if s := Seconds(UnitsPerSecond); s != 1 {
		t.Fatalf("Seconds(1s worth) = %v", s)
	}
	if r := Rate(100, UnitsPerSecond); r != 100 {
		t.Fatalf("Rate = %v", r)
	}
	if r := Rate(100, 0); r != 0 {
		t.Fatalf("Rate with zero work = %v, want 0", r)
	}
	if r := Rate(100, -5); r != 0 {
		t.Fatalf("Rate with negative work = %v, want 0", r)
	}
}

func TestTariffSanity(t *testing.T) {
	// The relative ordering the reproduction's calibration relies on
	// (DESIGN.md): join probes dominate cache probes; inserts are
	// comparable to probes; scans are cheap per step.
	if IndexProbe <= HashProbe {
		t.Fatal("join probes must cost more than cache probes")
	}
	if ScanStep >= IndexProbe {
		t.Fatal("a single scan step must be cheaper than an index probe")
	}
	for _, u := range []Units{IndexProbe, HashProbe, HashInsert, ScanStep, OutputTuple, CacheInsertTuple, KeyExtract, BloomHash, WindowMaint} {
		if u <= 0 {
			t.Fatal("all charges must be positive")
		}
	}
}
