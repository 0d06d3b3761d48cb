package fault

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// Disk-fault layer: the durability code (the engine WAL and checkpoint
// writer) performs all file I/O through the FS seam below, so tests can
// interpose a DiskInjector that fails specific operations deterministically
// — a write error on the third WAL flush, a failed WAL reset, a torn write
// of a checkpoint — without touching the real filesystem's behavior.
// Production code passes nil / OS() and pays one interface call per I/O
// operation, which is noise next to the syscall.
//
// Like the process-fault Injector above, schedules are deterministic: a fault
// fires as a pure function of the per-(file, operation) call count, so a
// failing crash test reproduces bit-for-bit.

// File is the subset of *os.File the durability paths use. *os.File
// implements it.
type File interface {
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Fd() uintptr
	Close() error
}

// FS is the filesystem seam durability I/O goes through. Implementations:
// OS() (the real filesystem) and DiskInjector (fault-wrapped).
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making a preceding rename durable. Best
	// effort on filesystems that reject directory fsync (the error is
	// swallowed there); injectors can still force a failure.
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem. Callers may also treat a nil FS as OS();
// see Sys.
func OS() FS { return osFS{} }

// Sys normalizes an optionally-nil FS to a usable one.
func Sys(fs FS) FS {
	if fs == nil {
		return osFS{}
	}
	return fs
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && (isErrno(err, syscall.EINVAL) || isErrno(err, syscall.ENOTSUP)) {
		// Some filesystems reject fsync on directories; the rename is as
		// durable as the platform allows.
		return nil
	}
	return err
}

func isErrno(err error, want syscall.Errno) bool {
	for {
		if e, ok := err.(syscall.Errno); ok {
			return e == want
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
}

// DiskOp classifies an interceptable filesystem operation.
type DiskOp int

const (
	// OpWrite is File.Write and File.WriteAt.
	OpWrite DiskOp = iota
	// OpSync is File.Sync.
	OpSync
	// OpTruncate is File.Truncate — the WAL reset and tail trim.
	OpTruncate
	// OpRename is FS.Rename — the checkpoint publish step.
	OpRename
	// OpSyncDir is FS.SyncDir — the rename-durability step.
	OpSyncDir
)

func (op DiskOp) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpSyncDir:
		return "syncdir"
	default:
		return "unknown"
	}
}

// DiskFault is a disk-fault class.
type DiskFault int

const (
	// WriteErr fails the operation outright; nothing reaches the file.
	WriteErr DiskFault = iota
	// SyncErr fails a Sync (data may or may not be durable — the caller must
	// treat it as lost).
	SyncErr
	// NoSpace fails the operation with ENOSPC.
	NoSpace
	// TornWrite persists only the first half of the data, then fails — a
	// crash mid-write at sector granularity.
	TornWrite
	// BitFlip flips one bit of the data and reports success — silent media
	// corruption the checksums must catch.
	BitFlip
)

func (k DiskFault) String() string {
	switch k {
	case WriteErr:
		return "write-error"
	case SyncErr:
		return "sync-error"
	case NoSpace:
		return "enospc"
	case TornWrite:
		return "torn-write"
	case BitFlip:
		return "bit-flip"
	default:
		return "unknown"
	}
}

// diskPoint is one armed disk fault: fire kind on the nth op targeting a file
// whose base name contains match.
type diskPoint struct {
	match string
	op    DiskOp
	nth   uint64
	kind  DiskFault
	fired bool
}

// DiskInjector is an FS wrapper with a deterministic disk-fault schedule.
// Safe for concurrent use.
type DiskInjector struct {
	inner FS

	mu     sync.Mutex
	points []*diskPoint
	calls  map[string]uint64 // base|op → calls seen
	fired  []string          // human-readable log of fired faults
}

// NewDisk wraps inner (nil = the real filesystem) with an empty schedule.
func NewDisk(inner FS) *DiskInjector {
	return &DiskInjector{inner: Sys(inner), calls: make(map[string]uint64)}
}

// FailAt arms fault kind on the nth (1-based) op-operation on files whose
// base name contains match. Returns the injector for chaining.
func (d *DiskInjector) FailAt(match string, op DiskOp, nth uint64, kind DiskFault) *DiskInjector {
	if nth == 0 {
		nth = 1
	}
	d.mu.Lock()
	d.points = append(d.points, &diskPoint{match: match, op: op, nth: nth, kind: kind})
	d.mu.Unlock()
	return d
}

// Fired returns a log line per fault delivered, in delivery order.
func (d *DiskInjector) Fired() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.fired...)
}

// check counts one (name, op) call and returns the armed fault to deliver,
// if any. At most one point fires per call (arm order).
func (d *DiskInjector) check(name string, op DiskOp) (DiskFault, bool) {
	base := filepath.Base(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	key := base + "|" + op.String()
	d.calls[key]++
	n := d.calls[key]
	for _, p := range d.points {
		if p.fired || p.op != op || p.nth != n || !strings.Contains(base, p.match) {
			continue
		}
		p.fired = true
		d.fired = append(d.fired, fmt.Sprintf("%s %s#%d: %s", base, op, n, p.kind))
		return p.kind, true
	}
	return 0, false
}

func (d *DiskInjector) errFor(kind DiskFault, name string, op DiskOp) error {
	if kind == NoSpace {
		return &os.PathError{Op: op.String(), Path: name, Err: syscall.ENOSPC}
	}
	return fmt.Errorf("fault: injected %s on %s %s", kind, op, filepath.Base(name))
}

func (d *DiskInjector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := d.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, name: name, inj: d}, nil
}

func (d *DiskInjector) ReadFile(name string) ([]byte, error) { return d.inner.ReadFile(name) }

func (d *DiskInjector) Rename(oldpath, newpath string) error {
	if kind, ok := d.check(newpath, OpRename); ok {
		return d.errFor(kind, newpath, OpRename)
	}
	return d.inner.Rename(oldpath, newpath)
}

func (d *DiskInjector) Remove(name string) error { return d.inner.Remove(name) }
func (d *DiskInjector) MkdirAll(path string, perm os.FileMode) error {
	return d.inner.MkdirAll(path, perm)
}

func (d *DiskInjector) SyncDir(dir string) error {
	if kind, ok := d.check(dir, OpSyncDir); ok {
		return d.errFor(kind, dir, OpSyncDir)
	}
	return d.inner.SyncDir(dir)
}

// faultFile wraps an opened File, delivering the injector's write-path
// faults. Reads are never failed — corruption is modeled by BitFlip at write
// time, matching real silent-corruption behavior (the bad bytes are on disk).
type faultFile struct {
	File
	name string
	inj  *DiskInjector
}

// deliverWrite applies an armed write fault to p using writeFn (positional or
// appending). Returns the bytes written and error per the fault semantics,
// and handled=false when no fault is armed.
func (ff *faultFile) deliverWrite(p []byte, writeFn func([]byte) (int, error)) (int, error, bool) {
	kind, ok := ff.inj.check(ff.name, OpWrite)
	if !ok {
		return 0, nil, false
	}
	switch kind {
	case TornWrite:
		n, err := writeFn(p[:len(p)/2])
		if err == nil {
			err = fmt.Errorf("fault: injected torn write on %s after %d/%d bytes",
				filepath.Base(ff.name), n, len(p))
		}
		return n, err, true
	case BitFlip:
		q := append([]byte(nil), p...)
		if len(q) > 0 {
			q[len(q)/3] ^= 1 << 3
		}
		n, err := writeFn(q)
		return n, err, true
	default:
		return 0, ff.inj.errFor(kind, ff.name, OpWrite), true
	}
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if n, err, handled := ff.deliverWrite(p, ff.File.Write); handled {
		return n, err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	fn := func(q []byte) (int, error) { return ff.File.WriteAt(q, off) }
	if n, err, handled := ff.deliverWrite(p, fn); handled {
		return n, err
	}
	return ff.File.WriteAt(p, off)
}

func (ff *faultFile) Sync() error {
	if kind, ok := ff.inj.check(ff.name, OpSync); ok {
		return ff.inj.errFor(kind, ff.name, OpSync)
	}
	return ff.File.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if kind, ok := ff.inj.check(ff.name, OpTruncate); ok {
		return ff.inj.errFor(kind, ff.name, OpTruncate)
	}
	return ff.File.Truncate(size)
}
