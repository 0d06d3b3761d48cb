// Package tier implements the file-backed cold tier under the engine's
// tiered slab storage: fixed-size page slots inside a memory-mapped spill
// file. Hot state lives in ordinary heap pages; pages demoted past the hot
// watermark are copied into a spill slot and accessed through the mapping,
// so cold tuples remain directly addressable (a probe that must walk a cold
// chain simply faults the page in) while the resident footprint reported to
// the memory allocator shrinks to the hot tier.
//
// The spill file doubles as durable state: its header records the codec
// version and page geometry, and a checkpoint may reference cold pages by
// slot instead of inlining their bytes, so a warm restart remaps the file
// and verifies the header instead of re-streaming the window.
package tier

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"acache/internal/fault"
)

// Options configure tiered slab storage. The zero value disables tiering
// entirely (every store and cache table stays fully in memory, byte-identical
// to the untired engine).
type Options struct {
	// Dir is the spill directory; empty disables tiering. The directory is
	// created on demand and holds one spill file per relation store plus one
	// shared spill for cache tables (per engine; sharded engines use a
	// per-shard subdirectory).
	Dir string
	// HotBytes is the per-store (and per-cache-table) hot-tier watermark in
	// bytes: state past it is demoted to the spill file. ≤ 0 uses a default.
	HotBytes int
	// PageBytes is the spill page size; ≤ 0 uses a default. Rounded up to the
	// OS page granularity so mapped segments stay aligned.
	PageBytes int
	// FS is the filesystem seam spill I/O goes through; nil uses the real
	// filesystem. Tests inject a fault.DiskInjector here to exercise the
	// ENOSPC / write-failure degradation paths deterministically. Note that
	// stores through an established mmap segment bypass the seam — only file
	// metadata operations (create, grow, header write, the no-mmap write-back
	// fallback) are interceptable.
	FS fault.FS
}

// Enabled reports whether tiering is configured.
func (o Options) Enabled() bool { return o.Dir != "" }

// Defaults for unset option fields.
const (
	DefaultHotBytes  = 1 << 20
	DefaultPageBytes = 1 << 16
)

// WithDefaults returns o with unset fields filled in and PageBytes aligned.
func (o Options) WithDefaults() Options {
	if o.HotBytes <= 0 {
		o.HotBytes = DefaultHotBytes
	}
	if o.PageBytes <= 0 {
		o.PageBytes = DefaultPageBytes
	}
	const align = 4096 // mmap offsets must be OS-page aligned
	if r := o.PageBytes % align; r != 0 {
		o.PageBytes += align - r
	}
	return o
}

// Spill file geometry. The header occupies one alignment unit so segment
// offsets stay mappable; segments are mapped once and never remapped, so a
// page window handed out stays valid until Close.
const (
	spillMagic   = 0xacac_5b11
	spillVersion = 1
	headerBytes  = 4096
	segPages     = 64 // pages mapped per segment
)

// Spill is one spill file: a header plus a growing array of fixed-size page
// slots, mapped in segments. Not safe for concurrent use; the engine's
// single-writer discipline (one goroutine owns a store at any instant)
// covers it.
type Spill struct {
	path      string
	f         fault.File
	fs        fault.FS
	pageBytes int
	meta      uint64
	segs      [][]byte
	dirty     []bool // per-segment, used by the no-mmap fallback only
	free      []int32
	nPages    int
	closed    bool
}

// Create creates (truncating any previous file) a spill at path with the
// given page size and caller metadata word — the codec identity a reopen
// must present back (stores record their tuple width there). I/O goes
// through fsys (nil = the real filesystem).
func Create(path string, pageBytes int, meta uint64, fsys fault.FS) (*Spill, error) {
	fsys = fault.Sys(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	sp := &Spill{path: path, f: f, fs: fsys, pageBytes: pageBytes, meta: meta}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], spillMagic)
	binary.LittleEndian.PutUint32(hdr[4:], spillVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(pageBytes))
	binary.LittleEndian.PutUint64(hdr[16:], meta)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	return sp, nil
}

// Open maps an existing spill file, verifying the header against the
// expected page size and metadata word. Used by warm restart to resolve
// checkpoint page references.
func Open(path string, pageBytes int, meta uint64, fsys fault.FS) (*Spill, error) {
	fsys = fault.Sys(fsys)
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [32]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tier: %s: short header: %w", path, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != spillMagic {
		f.Close()
		return nil, fmt.Errorf("tier: %s: bad magic %#x", path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != spillVersion {
		f.Close()
		return nil, fmt.Errorf("tier: %s: codec version %d, want %d", path, v, spillVersion)
	}
	if pb := binary.LittleEndian.Uint64(hdr[8:]); pb != uint64(pageBytes) {
		f.Close()
		return nil, fmt.Errorf("tier: %s: page size %d, want %d", path, pb, pageBytes)
	}
	if mw := binary.LittleEndian.Uint64(hdr[16:]); mw != meta {
		f.Close()
		return nil, fmt.Errorf("tier: %s: metadata %#x, want %#x", path, mw, meta)
	}
	sp := &Spill{path: path, f: f, fs: fsys, pageBytes: pageBytes, meta: meta}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	segBytes := int64(segPages * pageBytes)
	nSegs := int((st.Size() - headerBytes + segBytes - 1) / segBytes)
	for i := 0; i < nSegs; i++ {
		if err := sp.mapSegment(i); err != nil {
			sp.unmapAll()
			f.Close()
			return nil, err
		}
	}
	sp.nPages = nSegs * segPages
	return sp, nil
}

// PageBytes returns the page slot size.
func (sp *Spill) PageBytes() int { return sp.pageBytes }

// Pages returns the total page slots the file holds (allocated or free) —
// the bound a checkpoint page reference must validate against on reopen.
func (sp *Spill) Pages() int { return sp.nPages }

// Alloc claims a page slot, growing and mapping the file as needed.
func (sp *Spill) Alloc() (int32, error) {
	if n := len(sp.free); n > 0 {
		s := sp.free[n-1]
		sp.free = sp.free[:n-1]
		return s, nil
	}
	if sp.nPages == len(sp.segs)*segPages {
		seg := len(sp.segs)
		segBytes := int64(segPages * sp.pageBytes)
		if err := sp.f.Truncate(headerBytes + int64(seg+1)*segBytes); err != nil {
			return 0, err
		}
		if err := sp.mapSegment(seg); err != nil {
			return 0, err
		}
	}
	s := int32(sp.nPages)
	sp.nPages++
	return s, nil
}

// Free returns a page slot to the free list. The slot's bytes remain
// readable until it is reallocated, so stale readers within the current
// operation stay valid; the engine only reuses slots at operation
// boundaries.
func (sp *Spill) Free(slot int32) { sp.free = append(sp.free, slot) }

// Bytes returns page slot's window. On mmap platforms the window addresses
// the file mapping directly; writes through it are the demotion write path.
func (sp *Spill) Bytes(slot int32) []byte {
	seg, off := int(slot)/segPages, (int(slot)%segPages)*sp.pageBytes
	sp.dirtySeg(seg)
	return sp.segs[seg][off : off+sp.pageBytes : off+sp.pageBytes]
}

// Close unmaps, closes, and removes the spill file — the transient-state
// teardown (cache spills, and store spills of engines not closed for a warm
// restart). Idempotent.
func (sp *Spill) Close() error {
	if sp.closed {
		return nil
	}
	sp.closed = true
	sp.unmapAll()
	err := sp.f.Close()
	if rerr := sp.fs.Remove(sp.path); err == nil {
		err = rerr
	}
	return err
}

// CloseKeep unmaps and closes but keeps the file — the durable-shutdown
// path: the spill's cold pages remain on disk for a checkpointed warm
// restart to remap. Idempotent.
func (sp *Spill) CloseKeep() error {
	if sp.closed {
		return nil
	}
	sp.closed = true
	if err := sp.flushAll(); err != nil {
		sp.unmapAll()
		sp.f.Close()
		return err
	}
	sp.unmapAll()
	return sp.f.Close()
}
