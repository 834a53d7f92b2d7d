package guest

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/rootfs"
)

// scribble runs one write-side syscall of each kind against rootfs files
// and checks the guest sees its own writes. It runs on a guest process's
// goroutine, so it reports with Errorf only.
func scribble(t *testing.T, p *Proc) {
	t.Helper()
	mustOpen := func(path string, flags int) int {
		fd, e := p.Open(path, flags)
		if e != OK {
			t.Errorf("open %s: %v", path, e)
		}
		return fd
	}
	// In-place overwrite of a shared file.
	fd := mustOpen("/bin/app", ORdwr)
	if _, e := p.Write(fd, []byte("XXXX")); e != OK {
		t.Errorf("write: %v", e)
	}
	// Shrink (still shared), overwrite in place, then grow.
	fd = mustOpen("/lib/libc.so", ORdwr)
	if e := p.Ftruncate(fd, 100); e != OK {
		t.Errorf("ftruncate: %v", e)
	}
	if _, e := p.Write(fd, []byte("YYYY")); e != OK {
		t.Errorf("write: %v", e)
	}
	if e := p.Ftruncate(fd, 5000); e != OK {
		t.Errorf("ftruncate: %v", e)
	}
	// Truncate on open, then write.
	fd = mustOpen("/lib/libm.so", OWronly|OTrunc)
	if _, e := p.Write(fd, []byte("ZZ")); e != OK {
		t.Errorf("write: %v", e)
	}
	// Append past the end.
	fd = mustOpen("/bin/busybox", OWronly|OAppend)
	if _, e := p.Write(fd, []byte("tail")); e != OK {
		t.Errorf("write: %v", e)
	}

	read := func(path string, n int) []byte {
		fd := mustOpen(path, ORdonly)
		buf := make([]byte, n)
		got, _ := p.Read(fd, buf)
		return buf[:got]
	}
	if got := read("/bin/app", 4); string(got) != "XXXX" {
		t.Errorf("/bin/app starts %q after write", got)
	}
	if got := read("/lib/libc.so", 8); string(got[:4]) != "YYYY" {
		t.Errorf("/lib/libc.so starts %q after write", got)
	}
	if st, _ := p.Stat("/lib/libc.so"); st.Size != 5000 {
		t.Errorf("/lib/libc.so size %d after ftruncate, want 5000", st.Size)
	}
	if got := read("/lib/libm.so", 8); string(got) != "ZZ" {
		t.Errorf("/lib/libm.so = %q after O_TRUNC write", got)
	}
}

func cowTree() *ext2.File {
	return ext2.NewDir("",
		ext2.NewDir("bin",
			ext2.NewFile("app", 0o755, rootfs.SynthBinary("cow-app", 64, 8)),
			ext2.NewFile("busybox", 0o755, rootfs.SynthBinary("busybox", 160, 96)),
		),
		ext2.NewDir("lib",
			ext2.NewFile("libc.so", 0o755, rootfs.Musl(false)),
			ext2.NewFile("libm.so", 0o755, rootfs.SynthBinary("libm", 90, 0)),
		),
	)
}

// TestRootfsWritesAreCopyOnWrite: guest writes to root-filesystem files
// never reach the bytes the tree shares — not the synthesized-binary
// cache, not the image a tree was read from — and a second kernel
// mounting the same tree sees the original bytes.
func TestRootfsWritesAreCopyOnWrite(t *testing.T) {
	img, err := ext2.WriteImage(cowTree())
	if err != nil {
		t.Fatal(err)
	}
	fromImage, err := ext2.ReadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	synth := func() [][32]byte {
		return [][32]byte{
			sha256.Sum256(rootfs.SynthBinary("cow-app", 64, 8)),
			sha256.Sum256(rootfs.SynthBinary("busybox", 160, 96)),
			sha256.Sum256(rootfs.Musl(false)),
			sha256.Sum256(rootfs.SynthBinary("libm", 90, 0)),
		}
	}
	for name, tree := range map[string]*ext2.File{"synth-cache": cowTree(), "image": fromImage} {
		synthBefore, imgBefore := synth(), sha256.Sum256(img)
		for boot := 0; boot < 2; boot++ {
			k, err := NewKernel(Params{Image: buildImage(t, "lupine-base"), RootFS: tree})
			if err != nil {
				t.Fatal(err)
			}
			k.Spawn("writer", func(p *Proc) int {
				got := make([]byte, 4)
				fd, _ := p.Open("/bin/app", ORdonly)
				p.Read(fd, got)
				if !bytes.Equal(got, []byte("\x7fELF")) {
					t.Errorf("%s boot %d: /bin/app starts %q, want the original bytes", name, boot, got)
				}
				scribble(t, p)
				return 0
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i, h := range synth() {
			if h != synthBefore[i] {
				t.Errorf("%s: guest writes changed synthesized binary %d", name, i)
			}
		}
		if sha256.Sum256(img) != imgBefore {
			t.Errorf("%s: guest writes changed the image", name)
		}
	}
}
