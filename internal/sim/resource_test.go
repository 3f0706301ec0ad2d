package sim

import "testing"

// FuzzServerBusy runs a fuzz-chosen program of reservations — Schedule,
// ScheduleAt with a gap, ScheduleRun and ScheduleChain, their spans
// reported through Report — and clock advances on one server, and after
// every step holds BusyTime to the oracle, the spans the hooks saw
// clipped at now, and to at most the time elapsed. Each op is four
// bytes: kind, duration (ns), count or offset, advance (ns).
// testdata/fuzz/FuzzServerBusy holds a gap that straddles a reading,
// a chain that waits out gaps, runs behind a backlog, and zero-length
// services.
func FuzzServerBusy(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		env := NewEnv()
		defer env.Close()
		h := countingHooks{}
		env.SetHooks(h)
		s := NewServer(env, "s")
		// check runs on the driver's goroutine, where t.Fatal would strand
		// the run; the driver stops at the first failure instead.
		check := func(step int) bool {
			now := env.Now()
			want := clippedBusy(h[s], now)
			if got := s.BusyTime(); got != want || got > Duration(now) {
				t.Errorf("step %d at %v: busy time %v; the spans clipped there total %v", step, now, got, want)
				return false
			}
			return true
		}
		env.Go("driver", func(p *Proc) {
			at := make([]Time, 0, 8)
			for i := 0; i+4 <= len(prog); i += 4 {
				op := prog[i : i+4]
				d, c := Duration(op[1])*Nanosecond, Time(op[2])*Time(Nanosecond)
				switch op[0] % 5 {
				case 0:
					s.Schedule(d)
				case 1:
					s.ScheduleAt(p.Now()+c, d)
				case 2:
					n := 1 + int(op[2]%8)
					start := s.ScheduleRun(n, d)
					for k := 0; k < n; k++ {
						s.Report(start+Time(k)*Time(d), start+Time(k+1)*Time(d))
					}
				case 3:
					at = at[:0]
					for k := Time(0); k < 1+Time(op[2]%8); k++ {
						at = append(at, p.Now()+k*Time(op[3])*Time(Nanosecond))
					}
					s.ScheduleChain(at, d)
					for _, end := range at {
						s.Report(end-Time(d), end)
					}
				default: // 4: the clock advance alone
				}
				if !check(i / 4) {
					return
				}
				p.Sleep(Duration(op[3]) * Nanosecond)
				if !check(i / 4) {
					return
				}
			}
			// Past the queue's end, every booked service has run.
			p.Sleep(s.Backlog() + Nanosecond)
			check(len(prog) / 4)
		})
		env.Run(0)
	})
}
