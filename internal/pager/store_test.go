package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestBlobRoundTripAcrossSizes(t *testing.T) {
	s := NewStore(NewDisk())
	sizes := []int{0, 1, BlobPayload - 1, BlobPayload, BlobPayload + 1, 3*BlobPayload + 17}
	heads := make([]PageID, len(sizes))
	blobs := make([][]byte, len(sizes))
	for i, n := range sizes {
		blob := make([]byte, n)
		for j := range blob {
			blob[j] = byte(i + j)
		}
		head, err := s.Put(blob)
		if err != nil {
			t.Fatal(err)
		}
		heads[i], blobs[i] = head, blob
	}
	for i, head := range heads {
		got, err := s.Get(head)
		if err != nil {
			t.Fatalf("size %d: %v", sizes[i], err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("size %d: got %d bytes back", sizes[i], len(got))
		}
	}
}

func TestBlobChecksumDetectsCorruption(t *testing.T) {
	d := NewDisk()
	s := NewStore(d)
	head, err := s.Put(bytes.Repeat([]byte{7}, 2*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of the second page in the chain.
	chain, err := s.Chain(head)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	d.Read(chain[1], buf)
	buf[blobHeader+5] ^= 0xFF
	d.Write(chain[1], buf)
	if _, err := s.Get(head); err == nil {
		t.Fatal("corrupted blob page loaded without error")
	}
}

func TestFreeCommitReusesPages(t *testing.T) {
	d := NewDisk()
	s := NewStore(d)
	head, err := s.Put(make([]byte, 2*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(head); err != nil {
		t.Fatal(err)
	}
	// Before Commit the pages still belong to the previous checkpoint:
	// a new Put must extend the device rather than reuse them.
	before := d.NumPages()
	if _, err := s.Put(make([]byte, BlobPayload)); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != before+1 {
		t.Fatalf("pre-commit Put reused freed pages: %d -> %d", before, d.NumPages())
	}
	s.Commit()
	before = d.NumPages()
	if _, err := s.Put(make([]byte, 2*BlobPayload)); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != before {
		t.Fatalf("post-commit Put did not reuse freed pages: %d -> %d", before, d.NumPages())
	}
}

func TestSuperblockAlternatesAndSurvivesTorn(t *testing.T) {
	d := NewDisk()
	NewStore(d) // reserve superblock pages
	if _, ok, err := ReadSuper(d); err != nil || ok {
		t.Fatalf("empty device has a superblock: ok=%v err=%v", ok, err)
	}
	if err := WriteSuper(d, Super{Epoch: 1, Manifest: 5, ReplayFrom: 10}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSuper(d, Super{Epoch: 2, Manifest: 9, ReplayFrom: 20}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadSuper(d)
	if err != nil || !ok || got.Epoch != 2 || got.Manifest != 9 || got.ReplayFrom != 20 {
		t.Fatalf("super = %+v ok=%v err=%v", got, ok, err)
	}
	// Tear the epoch-3 superblock write (slot 1, overwriting epoch 1):
	// recovery must fall back to epoch 2 in slot 0.
	buf := make([]byte, PageSize)
	copy(buf, []byte{0x44, 0x54, 0x49, 0x46}) // magic, garbage body
	d.Write(PageID(1), buf)
	got, ok, err = ReadSuper(d)
	if err != nil || !ok || got.Epoch != 2 {
		t.Fatalf("after torn super: %+v ok=%v err=%v", got, ok, err)
	}
}

func TestRebuildFree(t *testing.T) {
	d := NewDisk()
	s := NewStore(d)
	h1, _ := s.Put(make([]byte, BlobPayload)) // page 2
	h2, _ := s.Put(make([]byte, BlobPayload)) // page 3
	_ = h2
	s.RebuildFree([]PageID{h1})
	if s.FreePages() != 1 {
		t.Fatalf("free pages = %d, want 1", s.FreePages())
	}
	// The next Put must land on the unreachable page.
	h3, err := s.Put(make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h2 {
		t.Fatalf("Put landed on page %d, want reclaimed %d", h3, h2)
	}
}

func TestFaultDeviceWritePath(t *testing.T) {
	d := NewFaultDevice(NewDisk())
	s := NewStore(d)
	if _, err := s.Put(make([]byte, BlobPayload)); err != nil {
		t.Fatal(err)
	}
	if d.Ops() == 0 {
		t.Fatal("probe counted no operations")
	}
	d.SetTrip(0) // the very next write trips
	if _, err := s.Put(make([]byte, 3*BlobPayload)); !errors.Is(err, ErrInjected) {
		t.Fatalf("tripped Put error = %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip Sync error = %v", err)
	}
	if !d.Tripped() {
		t.Fatal("injector did not report tripping")
	}
}

func TestFaultDeviceReadPath(t *testing.T) {
	d := NewFaultDevice(NewDisk())
	s := NewStore(d)
	head, err := s.Put(bytes.Repeat([]byte{1}, 2*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	d.SetReadTrip(1) // first read fine, second (chain page 2) fails
	if _, err := s.Get(head); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get error = %v, want injected", err)
	}
	d.SetReadTrip(-1)
	if _, err := s.Get(head); err != nil {
		t.Fatalf("Get after disarm: %v", err)
	}
}

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(d)
	blob := bytes.Repeat([]byte{0xAB}, BlobPayload+100)
	head, err := s.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSuper(d, Super{Epoch: 1, Manifest: head}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: superblock and blob must come back intact.
	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	sup, ok, err := ReadSuper(d2)
	if err != nil || !ok || sup.Manifest != head {
		t.Fatalf("reopened super = %+v ok=%v err=%v", sup, ok, err)
	}
	got, err := NewStore(d2).Get(sup.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("reopened blob: %d bytes", len(got))
	}
}
