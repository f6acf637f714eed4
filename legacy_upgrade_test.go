package fitingtree

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fitingtree/internal/core"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// Stores written by the single-tree facade before it became a one-shard
// DurableSharded; see each directory's README.md. legacyDir holds a gob
// manifest checkpoint plus a synced, never-checkpointed tail in the
// legacy wal.log. legacyUncheckpointedDir never checkpointed: it has no
// superblock, and its synced wal.log holds everything.
const (
	legacyDir               = "testdata/legacy-durable"
	legacyUncheckpointedDir = "testdata/legacy-durable-uncheckpointed"
)

var legacyFixtures = []string{legacyDir, legacyUncheckpointedDir}

// legacyExpected parses a fixture's expected.txt: the full content in
// dump's normalized order, and the element count of its checkpoint alone.
func legacyExpected(t testing.TB, dir string) (pairs [][2]int, checkpointed int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# checkpointed "); ok {
			if checkpointed, err = strconv.Atoi(rest); err != nil {
				t.Fatal(err)
			}
			header = true
			continue
		}
		var k, v int
		if _, err := fmt.Sscanf(line, "%d %d", &k, &v); err != nil {
			t.Fatalf("expected.txt line %q: %v", line, err)
		}
		pairs = append(pairs, [2]int{k, v})
	}
	if len(pairs) == 0 || !header {
		t.Fatal("expected.txt holds no contents or no checkpointed count")
	}
	return pairs, checkpointed
}

// legacyInMemory copies a fixture into a MemFS and an in-memory Disk.
func legacyInMemory(t testing.TB, dir string) (*wal.MemFS, *pager.Disk) {
	t.Helper()
	logData, err := os.ReadFile(filepath.Join(dir, legacyWALName))
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	mem.SetBytes(legacyWALName, logData)
	pages, err := os.ReadFile(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	disk := pager.NewDisk()
	for off := 0; off < len(pages); off += pager.PageSize {
		if err := disk.Write(disk.Allocate(), pages[off:min(off+pager.PageSize, len(pages))]); err != nil {
			t.Fatal(err)
		}
	}
	return mem, disk
}

// checkLegacyContents reopens a store on healthy storage and asserts it
// holds exactly the fixture's expected contents in a structurally valid
// tree, and that no legacy log survives the open.
func checkLegacyContents(t *testing.T, label string, fsys wal.FS, dev pager.Device, want [][2]int) {
	t.Helper()
	d, err := OpenDurable[int, int](fsys, dev, Options{})
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	defer d.SetAutoCheckpoint(false)
	if err := soleOpt(d).state.Load().tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", label, err)
	}
	if got := dump(d); !pairsEqual(got, want) {
		t.Fatalf("%s: opened %d pairs, want the fixture's %d", label, len(got), len(want))
	}
	if ok, err := hasLegacyLog(fsys); ok || err != nil {
		t.Fatalf("%s: legacy log survived the open (probe error %v)", label, err)
	}
}

// TestOpenDurableUpgradesLegacyStore opens each legacy fixture on real
// files: the contents equal the fixture's, the store is rewritten as a
// one-shard core.ShardManifest cut with the legacy log removed, and a
// second open reads the same contents.
func TestOpenDurableUpgradesLegacyStore(t *testing.T) {
	for _, fixture := range legacyFixtures {
		t.Run(filepath.Base(fixture), func(t *testing.T) { testOpenDurableUpgrades(t, fixture) })
	}
}

func testOpenDurableUpgrades(t *testing.T, fixture string) {
	want, _ := legacyExpected(t, fixture)
	dir := t.TempDir()
	for _, name := range []string{legacyWALName, "pages.db"} {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pager.OpenFileDisk(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	d, err := OpenDurable[int, int](fsys, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(d); !pairsEqual(got, want) {
		t.Fatalf("upgrade opened %d pairs, want the fixture's %d", len(got), len(want))
	}
	if ws := d.WALOpenStats(); len(ws) != 1 || ws[0].Records == 0 {
		t.Fatalf("WALOpenStats after upgrade = %+v, want the legacy log's replayed records", ws)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	super, ok, err := pager.ReadSuper(dev)
	if err != nil || !ok {
		t.Fatalf("no superblock after upgrade: %v", err)
	}
	blob, err := pager.NewStore(dev).Get(super.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.DecodeShardManifest(blob)
	if err != nil {
		t.Fatalf("upgraded superblock names no shard manifest: %v", err)
	}
	if m.Generation != 0 || len(m.Shards) != 1 {
		t.Fatalf("upgraded manifest: generation %d, %d shards; want 0 and 1", m.Generation, len(m.Shards))
	}
	if _, err := os.Stat(filepath.Join(dir, legacyWALName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("legacy log survived the upgrade: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ShardWALName(0, 0))); err != nil {
		t.Fatalf("upgraded store has no shard log: %v", err)
	}

	checkLegacyContents(t, "second open", fsys, dev, want)
}

// TestLegacyUpgradeCrashMatrix kills the upgrading open of each legacy
// fixture at every mutating operation of the WAL file system and,
// separately, of the checkpoint device, then crashes away unsynced bytes:
// reopening on healthy storage must recover exactly the fixture's
// contents, from the intact legacy store or from the upgraded one, and
// leave no legacy log behind.
func TestLegacyUpgradeCrashMatrix(t *testing.T) {
	for _, fixture := range legacyFixtures {
		t.Run(filepath.Base(fixture), func(t *testing.T) { testLegacyUpgradeCrashMatrix(t, fixture) })
	}
}

func testLegacyUpgradeCrashMatrix(t *testing.T, fixture string) {
	want, _ := legacyExpected(t, fixture)

	// Probe: count the healthy upgrade's fault sites on both stores.
	mem, disk := legacyInMemory(t, fixture)
	probeFS := wal.NewFaultFS(mem)
	probeDev := pager.NewFaultDevice(disk)
	d, err := OpenDurable[int, int](probeFS, probeDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	fsSites, devSites := probeFS.Ops(), probeDev.Ops()
	if fsSites == 0 || devSites == 0 {
		t.Fatalf("probe counted %d WAL and %d device fault sites", fsSites, devSites)
	}

	run := func(t *testing.T, arm func(*wal.FaultFS, *pager.FaultDevice)) {
		mem, disk := legacyInMemory(t, fixture)
		faultyFS := wal.NewFaultFS(mem)
		faultyDev := pager.NewFaultDevice(disk)
		arm(faultyFS, faultyDev)
		if d, err := OpenDurable[int, int](faultyFS, faultyDev, Options{}); err == nil {
			// Only a best-effort step after the commit failed.
			d.SetAutoCheckpoint(false)
		}
		mem.Crash()
		checkLegacyContents(t, "recovery", mem, disk, want)
		checkLegacyContents(t, "second recovery", mem, disk, want)
	}
	for trip := 0; trip < fsSites; trip++ {
		t.Run(fmt.Sprintf("fs-trip=%d", trip), func(t *testing.T) {
			run(t, func(f *wal.FaultFS, _ *pager.FaultDevice) { f.SetTrip(trip) })
		})
	}
	for trip := 0; trip < devSites; trip++ {
		t.Run(fmt.Sprintf("dev-trip=%d", trip), func(t *testing.T) {
			run(t, func(_ *wal.FaultFS, d *pager.FaultDevice) { d.SetTrip(trip) })
		})
	}
}
