package simclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestEngineOrderMatchesStableSort drives random schedules — many events
// sharing an instant, handlers scheduling more events, some of them in
// the past — and checks events fire in exactly the order a stable sort
// on (clamped instant, schedule order) gives. Every event fired is later
// in that order than every event fired before it, so the whole run's
// firing order is that sort of everything ever scheduled.
func TestEngineOrderMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := &Engine{}
		type sched struct {
			at  Time
			seq int
			id  int
		}
		var scheduled []sched
		var fired []int
		var add func(at Time)
		add = func(at Time) {
			id := len(scheduled)
			want := max(at, eng.Now())
			scheduled = append(scheduled, sched{at: want, seq: id, id: id})
			eng.Schedule(at, func(now Time) {
				if now != want || eng.Now() != want {
					t.Fatalf("seed %d: event %d fired at %v (clock %v), want %v", seed, id, now, eng.Now(), want)
				}
				fired = append(fired, id)
				// Children land at, before (clamped) and after now.
				for k := rng.Intn(3); k > 0 && len(scheduled) < 3000; k-- {
					add(now + Time(rng.Intn(21)-10))
				}
			})
		}
		eng.AdvanceTo(20) // initial events below 20 clamp to it
		for i := 0; i < 500; i++ {
			add(Time(rng.Intn(60)))
		}
		eng.Run()

		sort.SliceStable(scheduled, func(i, j int) bool {
			if scheduled[i].at != scheduled[j].at {
				return scheduled[i].at < scheduled[j].at
			}
			return scheduled[i].seq < scheduled[j].seq
		})
		want := make([]int, len(scheduled))
		for i, s := range scheduled {
			want[i] = s.id
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("seed %d: firing order diverges from the stable sort", seed)
		}
		if eng.Events() != len(scheduled) || eng.Len() != 0 {
			t.Fatalf("seed %d: Events()=%d Len()=%d, want %d and 0", seed, eng.Events(), eng.Len(), len(scheduled))
		}
	}
}

// TestEngineScheduleFromHandler: a running handler may schedule at its
// own instant and in the past; both run after it, in schedule order.
func TestEngineScheduleFromHandler(t *testing.T) {
	eng := &Engine{}
	var got []string
	eng.Schedule(10, func(now Time) {
		got = append(got, fmt.Sprint("a@", int64(now)))
		eng.Schedule(now, func(now Time) { got = append(got, fmt.Sprint("b@", int64(now))) })
		eng.Schedule(5, func(now Time) { got = append(got, fmt.Sprint("c@", int64(now))) })
	})
	eng.Schedule(10, func(now Time) { got = append(got, fmt.Sprint("d@", int64(now))) })
	eng.Run()
	want := []string{"a@10", "d@10", "b@10", "c@10"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestEngineRunUntil: RunUntil fires events at the horizon, leaves later
// ones queued, and parks the clock on the horizon.
func TestEngineRunUntil(t *testing.T) {
	eng := &Engine{}
	var got []Time
	for _, at := range []Time{15, 5, 10} {
		eng.Schedule(at, func(now Time) { got = append(got, now) })
	}
	eng.RunUntil(10)
	if !reflect.DeepEqual(got, []Time{5, 10}) || eng.Now() != 10 || eng.Len() != 1 {
		t.Fatalf("RunUntil(10): fired %v, clock %v, pending %d", got, eng.Now(), eng.Len())
	}
	eng.RunUntil(12)
	if len(got) != 2 || eng.Now() != 12 {
		t.Fatalf("RunUntil(12): fired %v, clock %v", got, eng.Now())
	}
	eng.Run()
	if !reflect.DeepEqual(got, []Time{5, 10, 15}) || eng.Events() != 3 {
		t.Fatalf("Run: fired %v, %d events", got, eng.Events())
	}
}

// TestEngineSamplerBeforeEvent: a sampler at boundary T observes the
// world before an event scheduled at T fires.
func TestEngineSamplerBeforeEvent(t *testing.T) {
	eng := &Engine{}
	var got []string
	eng.Sample(10, func(now Time) {
		if eng.Now() != now {
			t.Fatalf("sampler sees clock %v at boundary %v", eng.Now(), now)
		}
		got = append(got, fmt.Sprint("s@", int64(now)))
	})
	for _, at := range []Time{10, 25} {
		eng.Schedule(at, func(now Time) { got = append(got, fmt.Sprint("e@", int64(now))) })
	}
	eng.Run()
	want := []string{"s@10", "e@10", "s@20", "e@25"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

type countHandler struct{ n int }

func (c *countHandler) Fire(Time) { c.n++ }

// TestEngineSteadyStateAllocs: once the heap has grown, scheduling and
// firing a preallocated handler or func allocates nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	eng := &Engine{}
	h := &countHandler{}
	for i := 0; i < 64; i++ {
		eng.ScheduleHandler(1<<40, h) // a standing backlog the probes sift past
	}
	n := 0
	fn := func(Time) { n++ }
	cases := []struct {
		name     string
		schedule func(at Time)
	}{
		{"ScheduleHandler", func(at Time) { eng.ScheduleHandler(at, h) }},
		{"Schedule", func(at Time) { eng.Schedule(at, fn) }},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(1000, func() {
			at := eng.Now() + 1
			c.schedule(at)
			eng.RunUntil(at)
		})
		if allocs != 0 {
			t.Errorf("%s + pop: %.1f allocs per event, want 0", c.name, allocs)
		}
	}
	if h.n != 1001 || n != 1001 {
		t.Fatalf("fired %d handler and %d func events, want 1001 each", h.n, n)
	}
}

// BenchmarkEngine measures one schedule+pop against a standing backlog
// of pending events, the shape of a storm's queue.
func BenchmarkEngine(b *testing.B) {
	eng := &Engine{}
	h := &countHandler{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		eng.ScheduleHandler(Time(rng.Intn(1<<20)), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScheduleHandler(eng.Now()+Time(rng.Intn(1<<20)), h)
		eng.step()
	}
}
