package tier

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSpillAllocWriteReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel0.spill")
	opts := Options{Dir: dir, PageBytes: 1}.WithDefaults()
	if opts.PageBytes != 4096 {
		t.Fatalf("PageBytes alignment: got %d", opts.PageBytes)
	}
	sp, err := Create(path, opts.PageBytes, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slots []int32
	for i := 0; i < segPages+3; i++ { // force a second segment
		s, err := sp.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b := sp.Bytes(s)
		for j := range b {
			b[j] = byte(i)
		}
		slots = append(slots, s)
	}
	if got := sp.nPages - len(sp.free); got != segPages+3 {
		t.Fatalf("live pages = %d", got)
	}
	sp.Free(slots[1])
	if got := sp.nPages - len(sp.free); got != segPages+2 {
		t.Fatalf("live pages after free = %d", got)
	}
	if s, _ := sp.Alloc(); s != slots[1] {
		t.Fatalf("free slot not reused: got %d want %d", s, slots[1])
	}
	if err := sp.CloseKeep(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("CloseKeep removed the file: %v", err)
	}

	// Reopen: header verifies, bytes survive.
	re, err := Open(path, opts.PageBytes, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slots {
		b := re.Bytes(s)
		if b[0] != byte(i) || b[len(b)-1] != byte(i) {
			t.Fatalf("slot %d: bytes did not survive reopen (got %d, %d; want %d)", s, b[0], b[len(b)-1], i)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Close left the file behind: %v", err)
	}
}

func TestSpillHeaderVerification(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.spill")
	sp, err := Create(path, 4096, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Alloc(); err != nil {
		t.Fatal(err)
	}
	if err := sp.CloseKeep(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 8192, 3, nil); err == nil {
		t.Fatal("page-size mismatch not detected")
	}
	if _, err := Open(path, 4096, 4, nil); err == nil {
		t.Fatal("metadata mismatch not detected")
	}
	re, err := Open(path, 4096, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}
