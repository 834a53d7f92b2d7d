package ext2

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"lupine/internal/faults"
)

// multiGroupTree holds a file that needs double-indirect blocks and spans
// three block groups, with small files, a slow symlink and a directory
// written on either side of it.
func multiGroupTree() *File {
	big := make([]byte, 17<<20+12345)
	for i := range big {
		big[i] = byte(i*7 + i>>11)
	}
	return NewDir("",
		NewDir("a", NewFile("small", 0o644, []byte("hello")), NewSymlink("long", strings.Repeat("x", 80))),
		NewFile("big", 0o755, big),
		NewDir("z", NewFile("tail", 0o600, bytes.Repeat([]byte{1, 2, 3}, 5000))),
	)
}

// aliases reports whether data points into img.
func aliases(img, data []byte) bool {
	if len(data) == 0 || len(img) == 0 {
		return false
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(img)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return p >= base && p < base+uintptr(len(img))
}

// armedForNothing arms the block-read site with a rule that never fires,
// forcing the reader's byte-level copy path without changing any byte.
func armedForNothing() *faults.Injector {
	return faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{{Site: SiteBlockRead, NthHit: 1 << 30}}})
}

func TestMultiGroupDoubleIndirectGolden(t *testing.T) {
	root := multiGroupTree()
	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	// The image bytes are pinned: the writer's layout may not drift.
	sum := sha256.Sum256(img)
	if got, want := hex.EncodeToString(sum[:]), "dff3fc71fe1a03acc3bbf1143cde081ef42064ca375f1e29770bcda0c6fc223d"; got != want {
		t.Errorf("image hash %s, want %s", got, want)
	}
	if len(img) <= 2*blocksPerGroup*BlockSize {
		t.Fatalf("image only %d bytes; expected to span 3 groups", len(img))
	}
	if big := len(root.Lookup("big").Data); big <= (directBlocks+pointersPerBlock)*BlockSize {
		t.Fatalf("big is %d bytes; expected double indirection", big)
	}
	for _, inj := range []*faults.Injector{nil, armedForNothing()} {
		back, err := ReadImageInjected(img, inj)
		if err != nil {
			t.Fatal(err)
		}
		assertTreesEqual(t, "/", root, back)
		// The big file crosses group metadata, so it is always copied;
		// the small files are contiguous and alias the image unless an
		// injector is armed.
		if aliases(img, back.Lookup("big").Data) {
			t.Error("cross-group file aliases the image")
		}
		for _, p := range []string{"/a/small", "/z/tail"} {
			if got := aliases(img, back.Lookup(p).Data); got != (inj == nil) {
				t.Errorf("%s: aliases image = %v with injector %v", p, got, inj != nil)
			}
		}
	}
}

func TestReadImageDataIsCappedAlias(t *testing.T) {
	img, err := WriteImage(sampleTree())
	if err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(img)
	back, err := ReadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	back.Walk(func(path string, f *File) {
		if f.Dir || f.Symlink || len(f.Data) == 0 {
			return
		}
		n++
		if !aliases(img, f.Data) {
			t.Errorf("%s: contiguous file data was copied", path)
		}
		if cap(f.Data) != len(f.Data) {
			t.Errorf("%s: cap %d > len %d: appends would write into the image", path, cap(f.Data), len(f.Data))
		}
		f.Data = append(f.Data, bytes.Repeat([]byte{0xFF}, BlockSize)...)
	})
	if n == 0 {
		t.Fatal("sample tree has no regular files")
	}
	if sha256.Sum256(img) != before {
		t.Fatal("appending to ReadImage data changed the image")
	}
}

// TestWriteImageAllocsIndependentOfFileSize: the writer allocates the
// image once, so its allocation count depends on the tree's shape only.
func TestWriteImageAllocsIndependentOfFileSize(t *testing.T) {
	allocs := func(size int) float64 {
		root := NewDir("", NewDir("bin", NewFile("app", 0o755, make([]byte, size))), NewFile("init", 0o755, []byte("#!/bin/sh\n")))
		return testing.AllocsPerRun(5, func() {
			if _, err := WriteImage(root); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(BlockSize)
	for _, size := range []int{300 << 10, 9 << 20} {
		if got := allocs(size); got != small {
			t.Errorf("WriteImage of a %d-byte file: %.0f allocs, %.0f for a 1 KiB file", size, got, small)
		}
	}
}

// TestReadImageAllocatesNoFileData: on an image of contiguous files the
// reader slices file data out of the image instead of copying it.
func TestReadImageAllocatesNoFileData(t *testing.T) {
	const size = 4 << 20
	root := NewDir("", NewDir("lib", NewFile("libc.so", 0o755, make([]byte, size)), NewFile("libm.so", 0o755, make([]byte, size/4))))
	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadImage(img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= BlockSize*4 {
		t.Errorf("ReadImage allocated %d bytes per run for %d bytes of contiguous file data", perRun, size+size/4)
	}
	// An armed injector still copies every byte through the fault site;
	// one whose rules all target other sites does not arm this one.
	otherSite := faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{{Site: siteOther, NthHit: 1}}})
	for _, c := range []struct {
		name    string
		inj     *faults.Injector
		aliased bool
	}{{"block-read", armedForNothing(), false}, {"another site", otherSite, true}} {
		back, err := ReadImageInjected(img, c.inj)
		if err != nil {
			t.Fatal(err)
		}
		if got := aliases(img, back.Lookup("/lib/libc.so").Data); got != c.aliased {
			t.Errorf("injector arming %s: data aliases image = %v, want %v", c.name, got, c.aliased)
		}
	}
}

var siteOther = faults.RegisterSite("ext2-test/other", "ext2-test", "a site no reader path hits")
