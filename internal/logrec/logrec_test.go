package logrec

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{Addr: 0x1250, Value: 0x4321, WriteSize: 4, CPU: 2, Timestamp: 99}
	var buf [Size]byte
	r.Encode(buf[:])
	got := Decode(buf[:])
	if got != r {
		t.Fatalf("round trip: got %+v, want %+v", got, r)
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(addr, value, ts uint32, size, cpu uint16) bool {
		r := Record{Addr: addr, Value: value, WriteSize: size, CPU: cpu, Timestamp: ts}
		var buf [Size]byte
		r.Encode(buf[:])
		return Decode(buf[:]) == r
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	// The worked example of Section 3.1.1: write of 0x4321 to 0x1250.
	r := Record{Addr: 0x1250, Value: 0x4321, WriteSize: 4, CPU: 0, Timestamp: 7}
	s := r.String()
	if s != "00001250 00004321 0004 cpu0 @7" {
		t.Fatalf("String = %q", s)
	}
}
