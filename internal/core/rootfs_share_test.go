package core

import (
	"crypto/sha256"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/faults"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
	"lupine/internal/rootfs"
)

// TestGuestWritesLeaveRootFSIntact: the guest mounts the image's file
// data without copying it, so a write, ftruncate or O_TRUNC on a rootfs
// file must copy first. The image bytes and the synthesized-binary cache
// stay unchanged, and a second boot of the same unikernel sees the
// original files.
func TestGuestWritesLeaveRootFSIntact(t *testing.T) {
	db := kerneldb.MustLoad()
	spec := specFor(t, "redis")
	bin := spec.Image.Entrypoint[0]
	program := spec.Program
	var firstBytes []string // /bin/<app> prefix as each boot found it
	spec.Program = func(p *guest.Proc, probeOnly bool) int {
		buf := make([]byte, 4)
		fd, _ := p.Open(bin, guest.ORdwr)
		p.Read(fd, buf)
		firstBytes = append(firstBytes, string(buf))
		p.Lseek(fd, 0, 0)
		p.Write(fd, []byte("XXXX"))
		if fd, e := p.Open("/lib/libc.so", guest.ORdwr); e == guest.OK {
			p.Ftruncate(fd, 10)
			p.Write(fd, []byte("YYYY"))
		}
		if fd, e := p.Open("/bin/busybox", guest.OWronly|guest.OTrunc); e == guest.OK {
			p.Write(fd, []byte("ZZ"))
		}
		return program(p, probeOnly)
	}
	u, err := Build(db, spec, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	imgBefore := sha256.Sum256(u.RootFS)
	busybox := sha256.Sum256(rootfs.SynthBinary("busybox", 160, 96))
	musl := sha256.Sum256(rootfs.Musl(false))
	for boot := 0; boot < 2; boot++ {
		vm, err := u.Boot(BootOpts{ProbeOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(firstBytes) != 2 || firstBytes[0] != "\x7fELF" || firstBytes[1] != "\x7fELF" {
		t.Errorf("boots found %q at the start of %s, want the original ELF magic both times", firstBytes, bin)
	}
	if sha256.Sum256(u.RootFS) != imgBefore {
		t.Error("guest writes changed Unikernel.RootFS")
	}
	if sha256.Sum256(rootfs.SynthBinary("busybox", 160, 96)) != busybox || sha256.Sum256(rootfs.Musl(false)) != musl {
		t.Error("guest writes changed the synthesized-binary cache")
	}
}

// TestArmedBootBlockReadHits pins how many ext2/block-read hits one boot
// makes with the site armed: a rule on the last fetch fires, one past it
// does not. The counts were taken before the reader learned to slice
// file data out of the image, so armed boots keep fetching block by
// block.
func TestArmedBootBlockReadHits(t *testing.T) {
	db := kerneldb.MustLoad()
	for _, c := range []struct {
		app  string
		hits int
	}{{"hello-world", 878}, {"redis", 1771}, {"nginx", 2072}} {
		u, err := Build(db, specFor(t, c.app), BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, nth := range []int{c.hits, c.hits + 1} {
			inj := faults.MustNew(faults.Plan{Seed: 1, Rules: []faults.Rule{{Site: ext2.SiteBlockRead, NthHit: nth, Param: 7}}})
			u.Boot(BootOpts{Faults: inj})
			if fired := inj.FiredAt(ext2.SiteBlockRead) > 0; fired != (nth == c.hits) {
				t.Errorf("%s: NthHit %d fired = %v; want the boot's last fetch to be hit %d", c.app, nth, fired, c.hits)
			}
		}
	}
}
