package memsim

import (
	"math/rand"
	"sync"
	"testing"
)

// checkHomes asserts that the published view agrees with the space on
// every page of each address.
func checkHomes(t *testing.T, s *Space, h *Homes, addrs []int64) {
	t.Helper()
	for _, a := range addrs {
		for off := int64(0); off < 4*s.pageSize; off += s.pageSize {
			if got, want := h.HomeProc(a+off), s.HomeProc(a+off); got != want {
				t.Fatalf("Homes.HomeProc(%#x) = %d, Space says %d", a+off, got, want)
			}
		}
	}
}

// TestHomesMirrorsEveryWrite: a view published after some allocations
// starts with their homes, and every later Alloc, AllocPages, Migrate
// and Reset — including ones that grow a cluster's table past its
// published length — shows in the view once it returns.
func TestHomesMirrorsEveryWrite(t *testing.T) {
	s := newSpace(t, 8)
	rng := rand.New(rand.NewSource(1))
	var addrs []int64
	for i := 0; i < 5; i++ {
		addrs = append(addrs, s.AllocPages(3*s.pageSize, rng.Intn(8)))
	}
	h := s.Publish()
	if s.Publish() != h {
		t.Fatal("Publish made a second view")
	}
	checkHomes(t, s, h, addrs)
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			addrs = append(addrs, s.Alloc(int64(1+rng.Intn(9000)), rng.Intn(8)))
		case 1:
			addrs = append(addrs, s.AllocPages(int64(1+rng.Intn(3*int(s.pageSize))), rng.Intn(8)))
		case 2:
			s.Migrate(addrs[rng.Intn(len(addrs))], int64(1+rng.Intn(2*int(s.pageSize))), rng.Intn(8))
		}
		checkHomes(t, s, h, addrs[len(addrs)-1:])
	}
	checkHomes(t, s, h, addrs)
	s.Reset()
	checkHomes(t, s, h, addrs)
	for _, a := range addrs[:5] {
		if got := h.HomeProc(a); got != s.arenaCluster(a)*s.clusterSize {
			t.Fatalf("home of %#x after Reset = %d, want the arena default", a, got)
		}
	}
}

// TestHomesConcurrentReaders runs lock-free lookups while a writer
// allocates and migrates under its own lock (run with -race): every
// lookup returns some processor of the machine, and once the writer
// is done the view matches the space exactly.
func TestHomesConcurrentReaders(t *testing.T) {
	s := newSpace(t, 8)
	var mu sync.Mutex
	mu.Lock()
	h := s.Publish()
	first := s.AllocPages(s.pageSize, 3)
	mu.Unlock()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for off := int64(0); off < 64*s.pageSize; off += s.pageSize {
					if p := h.HomeProc(first + off); p < 0 || p >= 8 {
						t.Errorf("lookup returned processor %d", p)
						return
					}
				}
			}
		}()
	}
	var addrs []int64
	for i := 0; i < 500; i++ {
		mu.Lock()
		a := s.AllocPages(s.pageSize/2, i%8)
		s.Migrate(first, s.pageSize, i%8)
		mu.Unlock()
		addrs = append(addrs, a)
	}
	close(stop)
	wg.Wait()
	checkHomes(t, s, h, append(addrs, first))
}

func TestHomesPanicsOutsideArena(t *testing.T) {
	h := newSpace(t, 8).Publish()
	defer func() {
		if recover() == nil {
			t.Fatal("lookup of an address outside every arena did not panic")
		}
	}()
	h.HomeProc(1)
}
