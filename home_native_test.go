package cool_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// TestNativeHomeWritesVisibleToNextPlacement checks that native home
// lookups, which take no lock, still see every write to the page-home
// table the moment it returns: a Migrate inside a task steers the very
// next ObjectAffinity spawn, a page allocation inside a task is homed
// where it asked, and after Reset a re-issued address takes
// its new allocation's home. Stealing is off, so a task runs exactly
// where placement put it.
func TestNativeHomeWritesVisibleToNextPlacement(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{
		Processors: 2,
		Backend:    cool.BackendNative,
		Sched:      cool.SchedPolicy{NoStealing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := rt.NewObjPages(4096, 0)
	var wrong atomic.Int64
	ranOn := func(want int) func(*cool.Ctx) {
		return func(c *cool.Ctx) {
			if c.ProcID() != want {
				wrong.Add(1)
			}
		}
	}
	const rounds = 200
	err = rt.Run(func(ctx *cool.Ctx) {
		for i := 0; i < rounds; i++ {
			to := (i + 1) % 2 // the last round leaves obj homed on 0
			ctx.WaitFor(func() {
				// Spawned from whichever worker is free, so migrate
				// and lookup run on both workers over the rounds.
				ctx.Spawn("migrate", func(c *cool.Ctx) {
					c.Migrate(obj.Base, obj.Size, to)
					if c.Home(obj.Base) != to {
						wrong.Add(1)
					}
					c.Spawn("after-migrate", ranOn(to), cool.ObjectAffinity(obj.Base))
					a := c.Runtime().NewObjPages(64, c.ProcID())
					if c.Home(a.Base) != c.ProcID() {
						wrong.Add(1)
					}
					c.Spawn("after-alloc", ranOn(c.ProcID()), cool.ObjectAffinity(a.Base))
				}, cool.OnProcessor(i/2))
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d lookups or placements missed a home write made just before them", n)
	}

	if err := rt.Reset(); err != nil {
		t.Fatal(err)
	}
	again := rt.NewObjPages(4096, 1)
	if again.Base != obj.Base {
		t.Fatalf("Reset did not re-issue address %#x (got %#x); the test needs the same page", obj.Base, again.Base)
	}
	if got := rt.Home(again.Base); got != 1 {
		t.Fatalf("Home after Reset and re-allocation = %d, want 1", got)
	}
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.Spawn("after-reset", ranOn(1), cool.ObjectAffinity(again.Base))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatal("placement after Reset used the address's home from before Reset")
	}
}

// TestNativeHomeOutsideSpaceFailsRun: the lock-free lookup still panics
// on an address outside every arena, and the run fails with a typed
// task error naming it instead of hanging — whether the address reaches
// the lookup through ObjectAffinity placement or through Ctx.Home.
func TestNativeHomeOutsideSpaceFailsRun(t *testing.T) {
	for name, job := range map[string]func(*cool.Ctx){
		"placement": func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				ctx.Spawn("bad", func(*cool.Ctx) {}, cool.ObjectAffinity(8))
			})
		},
		"Ctx.Home": func(ctx *cool.Ctx) { ctx.Home(8) },
	} {
		rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: cool.BackendNative})
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- rt.Run(job) }()
		select {
		case err = <-errc:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run hung after the lookup panicked", name)
		}
		var tp *cool.TaskPanicError
		if !errors.As(err, &tp) {
			t.Fatalf("%s: Run returned %v, want a *TaskPanicError", name, err)
		}
		if !strings.Contains(fmt.Sprint(tp.Value), "outside any arena") {
			t.Fatalf("%s: panic value %v does not name the bad address", name, tp.Value)
		}
	}
}
