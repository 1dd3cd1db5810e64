package sim

import (
	"fmt"
	"testing"
)

// resUser is one user of a Resource in TestUseCallMatchesUse: it starts at
// start and then holds one server for each of steps in turn. As a proc it
// calls Use; converted, kind 'C' becomes a callback chain of UseCall jobs.
type resUser struct {
	kind  byte // 'P' proc in both runs, 'C' callback chain
	start Time
	steps []Time
}

// runResourceSchedule runs users on one Resource and returns the (time,
// user, step) trace of service completions in execution order. With
// convert false every user is a proc, and saved is the number of resumes
// the converted run should not make: for a 'C' user its start, its initial
// Sleep, and per step the grant (if it queued) and the end of service.
func runResourceSchedule(servers int64, users []resUser, convert bool) (trace []string, k *Kernel, saved uint64) {
	k = NewKernel()
	r := NewResource(k, "r", servers)
	note := func(i, step int) {
		trace = append(trace, fmt.Sprintf("%v:u%d.%d", k.Now(), i, step))
	}
	for i, u := range users {
		i, u := i, u
		switch {
		case !convert:
			k.Go("user", func(p *Proc) {
				p.Sleep(u.start)
				var resumes []uint64 // per step: 1 for the service end, +1 if it queued
				for s, d := range u.steps {
					n := uint64(1)
					if r.sem.waiters.len() > 0 || r.sem.avail < 1 {
						n++
					}
					resumes = append(resumes, n)
					r.Use(p, d)
					note(i, s)
				}
				if u.kind == 'C' {
					saved += 2
					for _, n := range resumes {
						saved += n
					}
				}
			})
		case u.kind == 'C':
			var j Job
			s := 0
			var next func()
			next = func() {
				if s < len(u.steps) {
					r.UseCall(&j, u.steps[s])
				}
			}
			j.Done = func(any) {
				note(i, s)
				s++
				next()
			}
			k.AfterCall(0, func(any) { k.AfterCall(u.start, func(any) { next() }, nil) }, nil)
		default:
			k.Go("user", func(p *Proc) {
				p.Sleep(u.start)
				for s, d := range u.steps {
					r.Use(p, d)
					note(i, s)
				}
			})
		}
	}
	k.Run(Forever)
	return trace, k, saved
}

// TestUseCallMatchesUse runs each schedule with every user a proc and again
// with some users converted to UseCall chains, and requires the
// same completion trace, the same dispatched events, and exactly the
// converted users' resumes fewer.
func TestUseCallMatchesUse(t *testing.T) {
	ms := Millisecond
	cases := []struct {
		name    string
		servers int64
		users   []resUser
	}{
		{"one-server-uncontended", 1, []resUser{
			{'C', 0, []Time{ms, ms}},
			{'P', 5 * ms, []Time{ms}},
			{'C', 10 * ms, []Time{ms, 2 * ms}},
			{'C', 20 * ms, []Time{0, ms}},
		}},
		{"one-server-contended", 1, []resUser{
			{'P', 0, []Time{2 * ms, ms}},
			{'C', 0, []Time{ms, 3 * ms, ms}},
			{'C', 0, []Time{ms, ms}},
			{'P', ms, []Time{ms, ms}},
			{'C', ms, []Time{2 * ms}},
		}},
		{"k-servers-uncontended", 3, []resUser{
			{'C', 0, []Time{ms, ms}},
			{'C', 0, []Time{2 * ms, ms}},
			{'P', 0, []Time{3 * ms}},
		}},
		{"k-servers-contended", 2, []resUser{
			{'C', 0, []Time{3 * ms, ms}},
			{'P', 0, []Time{ms, ms, ms}},
			{'C', 0, []Time{2 * ms, 2 * ms}},
			{'C', 0, []Time{ms, 2 * ms}},
			{'P', ms, []Time{ms}},
			{'C', 2 * ms, []Time{ms, ms, ms}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, kp, saved := runResourceSchedule(tc.servers, tc.users, false)
			got, kc, _ := runResourceSchedule(tc.servers, tc.users, true)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trace differs\nprocs:     %v\ncallbacks: %v", want, got)
			}
			if kc.Dispatched() != kp.Dispatched() {
				t.Fatalf("dispatched %d, procs dispatched %d", kc.Dispatched(), kp.Dispatched())
			}
			if kc.Resumes() != kp.Resumes()-saved {
				t.Fatalf("resumes %d, want %d - %d", kc.Resumes(), kp.Resumes(), saved)
			}
		})
	}
}
