// Package pager is the page-device layer under the durability engine's
// checkpoints: fixed-size pages behind the Device interface, and the
// shadow-paged blob Store with its dual-superblock commit record
// (store.go) that checkpoints are written through.
//
// Three devices implement Device. Disk is main memory with counted reads
// and writes, so tests and the recovery experiments measure page traffic
// without touching a file system. FileDisk is one flat file on a real
// file system. FaultDevice wraps either with deterministic write, sync
// and read fault injection for the crash matrices.
//
// PageID is the storage-level notion of page identity: stable for the
// lifetime of the page and independent of where the page sits in any
// index. The in-memory index mirrors this with its own per-page identity
// (core's page ids), which is what lets the copy-on-write flush share
// unmodified pages between published tree states, and lets a checkpoint
// rewrite only the dirty chunks' blobs and reuse every unchanged one.
package pager

import (
	"fmt"
)

// PageSize is the size of a disk page in bytes.
const PageSize = 4096

// PageID identifies a disk page.
type PageID uint32

// Disk is a growable array of pages with access accounting.
type Disk struct {
	pages  [][]byte
	reads  int64
	writes int64
}

// NewDisk returns an empty disk.
func NewDisk() *Disk { return &Disk{} }

// Allocate appends a zeroed page and returns its id.
func (d *Disk) Allocate() PageID {
	d.pages = append(d.pages, make([]byte, PageSize))
	return PageID(len(d.pages) - 1)
}

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int { return len(d.pages) }

// Read copies page id into buf (len >= PageSize) and counts one read.
func (d *Disk) Read(id PageID, buf []byte) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("pager: read of unallocated page %d", id)
	}
	d.reads++
	copy(buf, d.pages[id])
	return nil
}

// Write copies buf into page id and counts one write.
func (d *Disk) Write(id PageID, buf []byte) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("pager: write of unallocated page %d", id)
	}
	d.writes++
	copy(d.pages[id], buf)
	return nil
}

// PageView returns a read-only view of page id without copying, counting
// one read. Callers must not write through or retain the slice past the
// next Write to the page. Implements the optional PageViewer fast path.
func (d *Disk) PageView(id PageID) ([]byte, error) {
	if int(id) >= len(d.pages) {
		return nil, fmt.Errorf("pager: read of unallocated page %d", id)
	}
	d.reads++
	return d.pages[id], nil
}

// Reads returns the number of page reads served by the disk.
func (d *Disk) Reads() int64 { return d.reads }

// Writes returns the number of page writes received by the disk.
func (d *Disk) Writes() int64 { return d.writes }
