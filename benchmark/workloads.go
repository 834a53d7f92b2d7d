package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"lupine/internal/apps"
	"lupine/internal/boot"
	"lupine/internal/core"
	"lupine/internal/experiments"
	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kbuild"
	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
	"lupine/internal/manifest"
	"lupine/internal/rootfs"
	"lupine/internal/vmm"
)

// workload is one benchmark workload. newWorkload does its one-time
// set-up; setup is the repeatable part, which the benchmark times several
// times and reports the median of. run executes one op, checks its
// simulated output and returns the work it did.
type workload interface {
	setup(rep int) error
	run(op Op, tr *tracer) (work float64, err error)
	// decompose replays op's layers for the traced run, outside the op's
	// timing; workloads whose ops are single layers do nothing.
	decompose(op Op, tr *tracer) error
	// layers turns a traced pass's span totals into per-layer metrics.
	layers(tr *tracer, into map[string]float64)
	// digest hashes the simulated results seen so far.
	digest() string
}

func newWorkload(name string, db *kerneldb.DB, seed uint64) (workload, error) {
	switch name {
	case "specialize":
		// rootfs memoizes each app's synthesized stand-in binaries per
		// process. Fill that cache here, so every timed cycle is warm and
		// setup_s counts the synthesis once.
		for _, a := range apps.Registry() {
			if _, err := rootfs.BuildTree(a.ContainerImage(), a.Manifest(), false); err != nil {
				return nil, fmt.Errorf("%s rootfs: %w", a.Name, err)
			}
		}
		return &specialize{db: db, derived: make(map[string]*core.SearchResult)}, nil
	case "serve":
		return &serve{db: db, ref: make(map[string]serveResult)}, nil
	case "storm":
		return &storm{seeds: stormSeeds(seed), ref: make(map[Op]stormResult)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func appSpec(a *apps.App) core.Spec {
	return core.Spec{
		Manifest: a.Manifest(),
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}
}

// digestOf hashes lines in sorted order.
func digestOf(lines []string) string {
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- specialize: §4.1's configuration search, one app per op ---

type specialize struct {
	db      *kerneldb.DB
	derived map[string]*core.SearchResult // first result per app
}

// specializeWarmup are cheap apps (one to a few probes) derived in set-up.
var specializeWarmup = []string{"hello-world", "python", "openjdk", "php"}

func (s *specialize) setup(int) error {
	for _, name := range specializeWarmup {
		if _, err := s.run(Op{Key: name}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *specialize) run(op Op, tr *tracer) (float64, error) {
	a, err := apps.Lookup(op.Key)
	if err != nil {
		return 0, err
	}
	in := core.SearchInput{Spec: appSpec(a), SuccessText: a.SuccessText}
	var res *core.SearchResult
	err = tr.do("core.derive_manifest", func() (err error) {
		res, err = core.DeriveManifest(s.db, in)
		return err
	})
	if err != nil {
		return 0, err
	}
	// tab3's own check: the search finds exactly the declared options.
	if got, want := res.Manifest.Options, a.Manifest().Options; !slices.Equal(got, want) {
		return 0, fmt.Errorf("%s: derived %v, want %v", a.Name, got, want)
	}
	if first, ok := s.derived[a.Name]; ok {
		if first.Boots != res.Boots || !slices.Equal(first.Added, res.Added) {
			return 0, fmt.Errorf("%s: search took %d boots %v, earlier %d boots %v",
				a.Name, res.Boots, res.Added, first.Boots, first.Added)
		}
	} else {
		s.derived[a.Name] = res
	}
	return 1, nil
}

func (s *specialize) digest() string {
	var lines []string
	for name, r := range s.derived {
		lines = append(lines, fmt.Sprintf("%s %d %s", name, r.Boots, strings.Join(r.Added, ",")))
	}
	return digestOf(lines)
}

func (s *specialize) decompose(op Op, tr *tracer) error {
	a, err := apps.Lookup(op.Key)
	if err != nil {
		return err
	}
	return s.replay(a, s.derived[a.Name], tr)
}

// replay re-runs every probe of app's search through the layer functions
// core.Build and Unikernel.Boot compose, one span per layer. It is the
// traced run's decomposition of an op; the guard compares it with
// core.Build on the same input and fails on any drift.
func (s *specialize) replay(a *apps.App, res *core.SearchResult, tr *tracer) error {
	src := a.Manifest()
	for i := 0; i < res.Boots; i++ {
		m := manifest.New(src.App, src.Entrypoint, res.Added[:i]...)
		for k, v := range src.Env {
			m.Env[k] = v
		}
		m.NetworkPort = src.NetworkPort
		spec := appSpec(a)
		spec.Manifest = m
		name := fmt.Sprintf("search-%s-%d", m.App, i)

		var u *core.Unikernel
		if err := tr.do("core.build", func() (err error) {
			u, err = core.Build(s.db, spec, core.BuildOpts{Name: name})
			return err
		}); err != nil {
			return err
		}
		var cfg *kconfig.Config
		if err := tr.do("kconfig.resolve", func() error {
			closure, err := kconfig.DependencyClosure(s.db.Kconfig, m.Options)
			if err != nil {
				return err
			}
			cfg, err = s.db.ResolveProfile(s.db.LupineBaseRequest().Enable(closure...))
			return err
		}); err != nil {
			return err
		}
		var img *kbuild.Image
		if err := tr.do("kbuild.build", func() (err error) {
			img, err = kbuild.Build(s.db, name, cfg, kbuild.O2)
			return err
		}); err != nil {
			return err
		}
		var tree *ext2.File
		if err := tr.do("rootfs.tree", func() (err error) {
			tree, err = rootfs.BuildTree(spec.Image, m, false)
			return err
		}); err != nil {
			return err
		}
		var fs []byte
		if err := tr.do("ext2.write", func() (err error) {
			fs, err = ext2.WriteImage(tree)
			return err
		}); err != nil {
			return err
		}
		tr.count("ext2.image_bytes", int64(len(fs)))
		if !bytes.Equal(fs, u.RootFS) || img.Size != u.Kernel.Size {
			return &guardError{fmt.Sprintf("%s probe %d: layer replay gives rootfs %d B / kernel %d B, core.Build %d B / %d B (rootfs bytes equal: %v)",
				a.Name, i, len(fs), img.Size, len(u.RootFS), u.Kernel.Size, bytes.Equal(fs, u.RootFS))}
		}
		if err := tr.do("boot.simulate", func() error {
			_, err := boot.Simulate(u.Kernel, vmm.Firecracker(), int64(len(u.RootFS)))
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("ext2.read", func() error {
			_, err := ext2.ReadImage(u.RootFS)
			return err
		}); err != nil {
			return err
		}
		var vm *core.VM
		if err := tr.do("core.probe_boot", func() (err error) {
			vm, err = u.Boot(core.BootOpts{ProbeOnly: true})
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("guest.probe_run", vm.Run); err != nil {
			return err
		}
		// Only the last probe of a search succeeds.
		if ok, last := vm.Succeeded(a.SuccessText), i == res.Boots-1; ok != last {
			return &guardError{fmt.Sprintf("%s probe %d: replayed boot succeeded=%v, search implies %v", a.Name, i, ok, last)}
		}
	}
	return nil
}

// guardError is a drift between the traced decomposition and the program.
type guardError struct{ msg string }

func (e *guardError) Error() string { return "decomposition guard: " + e.msg }

func (s *specialize) layers(tr *tracer, into map[string]float64) {
	resolve, kb := tr.total("kconfig.resolve"), tr.total("kbuild.build")
	tree, write, read := tr.total("rootfs.tree"), tr.total("ext2.write"), tr.total("ext2.read")
	build := tr.total("core.build")
	into["kconfig.resolve_ms"] = resolve.meanMS()
	into["kconfig.resolve_allocs"] = resolve.meanAllocs()
	into["kbuild.build_ms"] = kb.meanMS()
	into["rootfs.tree_ms"] = tree.meanMS()
	into["rootfs.tree_alloc_kb"] = tree.meanKB()
	into["ext2.write_ms"] = write.meanMS()
	into["ext2.write_alloc_kb"] = write.meanKB()
	into["ext2.image_kb"] = float64(tr.counts["ext2.image_bytes"]) / 1024 / float64(write.calls)
	into["ext2.read_ms"] = read.meanMS()
	into["ext2.read_alloc_kb"] = read.meanKB()
	into["boot.simulate_ms"] = tr.total("boot.simulate").meanMS()
	into["core.build_ms"] = build.meanMS()
	into["core.build_coverage"] = float64(resolve.ns+kb.ns+tree.ns+write.ns) / float64(build.ns)
	into["core.probes_per_app"] = float64(build.calls) / float64(tr.total("core.derive_manifest").calls)
	into["guest.probe_run_ms"] = tr.total("guest.probe_run").meanMS()
}

// --- serve: Table 4 client sessions against prebuilt images ---

type serveResult struct {
	throughput      float64 // virtual requests per second
	syscalls, ctxsw int64
}

type serve struct {
	db     *kerneldb.DB
	images map[string]*core.Unikernel // "variant/app"
	ref    map[string]serveResult     // first result per "variant/scenario"
}

func (s *serve) setup(int) error {
	s.images = make(map[string]*core.Unikernel)
	for _, v := range serveVariants {
		for _, name := range []string{"redis", "nginx"} {
			a, err := apps.Lookup(name)
			if err != nil {
				return err
			}
			u, err := core.Build(s.db, appSpec(a), core.BuildOpts{KML: v == "lupine"})
			if err != nil {
				return fmt.Errorf("building %s/%s: %w", v, name, err)
			}
			s.images[v+"/"+name] = u
		}
	}
	// One warm-up session per pair; the first set-up's results become
	// the reference every later repeat must reproduce.
	for _, v := range serveVariants {
		for _, sc := range serveScenarios {
			if _, err := s.run(Op{Key: v + "/" + sc.name}, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *serve) run(op Op, tr *tracer) (float64, error) {
	variant, name, _ := strings.Cut(op.Key, "/")
	i := slices.IndexFunc(serveScenarios, func(sc scenario) bool { return sc.name == name })
	if i < 0 {
		return 0, fmt.Errorf("unknown serve op %q", op.Key)
	}
	sc := serveScenarios[i]
	u := s.images[variant+"/"+sc.app]
	if u == nil {
		return 0, fmt.Errorf("unknown serve variant in %q", op.Key)
	}
	port := u.Spec.Manifest.NetworkPort
	var res apps.BenchResult
	var st guest.Stats
	err := tr.do("serve."+sc.name, func() error {
		var vm *core.VM
		if err := tr.do("core.boot", func() (err error) {
			vm, err = u.Boot(core.BootOpts{})
			return err
		}); err != nil {
			return err
		}
		if sc.app == "redis" {
			apps.SpawnRedisBenchmark(vm.Guest, port, sc.requests, sc.op, &res)
		} else {
			apps.SpawnAB(vm.Guest, port, sc.conns, sc.reqs, &res)
		}
		err := tr.do("guest.run", vm.Run)
		st = vm.Guest.Stats()
		return err
	})
	if err != nil {
		return 0, err
	}
	if res.Errors != 0 || res.Requests != sc.work() {
		return 0, fmt.Errorf("%s: %d of %d requests failed (want %d requests)", op.Key, res.Errors, res.Requests, sc.work())
	}
	got := serveResult{res.Throughput, st.Syscalls, st.ContextSwitch}
	if ref, ok := s.ref[op.Key]; !ok {
		s.ref[op.Key] = got
	} else if got != ref {
		return 0, fmt.Errorf("%s: session gave %+v, earlier %+v", op.Key, got, ref)
	}
	tr.count("guest.syscalls", st.Syscalls)
	tr.count("guest.ctxsw", st.ContextSwitch)
	return float64(res.Requests), nil
}

func (s *serve) decompose(Op, *tracer) error { return nil }

func (s *serve) digest() string {
	var lines []string
	for k, r := range s.ref {
		lines = append(lines, fmt.Sprintf("%s %.6f %d %d", k, r.throughput, r.syscalls, r.ctxsw))
	}
	return digestOf(lines)
}

func (s *serve) layers(tr *tracer, into map[string]float64) {
	bootT, run := tr.total("core.boot"), tr.total("guest.run")
	into["core.boot_ms"] = bootT.meanMS()
	into["guest.run_ms"] = run.meanMS()
	syscalls := float64(tr.counts["guest.syscalls"])
	into["guest.ns_per_syscall"] = float64(run.ns) / syscalls
	var reqs float64
	for _, sc := range serveScenarios {
		t := tr.total("serve." + sc.name)
		n := float64(t.calls * sc.work())
		into["guest.us_per_req."+sc.name] = float64(t.ns) / 1e3 / n
		reqs += n
	}
	into["guest.syscalls_per_req"] = syscalls / reqs
	into["guest.ctxsw_per_req"] = float64(tr.counts["guest.ctxsw"]) / reqs
}

// --- storm: the regionfail and netsplit hero storms under seeded chaos ---

type stormResult struct {
	events       int
	availability float64
	p99us        float64
}

type storm struct {
	seeds []uint64
	ref   map[Op]stormResult // first result per (storm, seed)
}

// setup runs both storms under one of the run's seeds, so the first
// len(s.seeds) set-ups record the reference result of every pair.
func (s *storm) setup(rep int) error {
	seed := s.seeds[rep%len(s.seeds)]
	for _, name := range storms {
		if _, err := s.run(Op{Key: name, Seed: seed}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *storm) run(op Op, tr *tracer) (float64, error) {
	experiments.SetChaosSeed(op.Seed)
	var got stormResult
	err := tr.do("storm."+op.Key, func() (err error) {
		switch op.Key {
		case "regionfail":
			got.events, got.availability, got.p99us, err = experiments.RegionFailBench()
		case "netsplit":
			got.events, got.availability, got.p99us, err = experiments.NetSplitBench()
		default:
			err = fmt.Errorf("unknown storm %q", op.Key)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	if got.events <= 0 {
		return 0, fmt.Errorf("%s seed %d: no events", op.Key, op.Seed)
	}
	if ref, ok := s.ref[op]; !ok {
		s.ref[op] = got
	} else if got != ref {
		return 0, fmt.Errorf("%s seed %d: storm gave %+v, earlier %+v", op.Key, op.Seed, got, ref)
	}
	tr.count("events."+op.Key, int64(got.events))
	return float64(got.events), nil
}

func (s *storm) decompose(Op, *tracer) error { return nil }

func (s *storm) digest() string {
	var lines []string
	for op, r := range s.ref {
		lines = append(lines, fmt.Sprintf("%s %d %d %.6f %.3f", op.Key, op.Seed, r.events, r.availability, r.p99us))
	}
	return digestOf(lines)
}

func (s *storm) layers(tr *tracer, into map[string]float64) {
	for _, name := range storms {
		t, events := tr.total("storm."+name), float64(tr.counts["events."+name])
		into["storm.ns_per_event."+name] = float64(t.ns) / events
		into["storm.allocs_per_event."+name] = float64(t.allocs) / events
	}
}
