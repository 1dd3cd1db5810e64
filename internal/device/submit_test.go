package device

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// devIO is one request of a devUser.
type devIO struct {
	write     bool
	off, size int64
}

func rd(off, size int64) devIO { return devIO{false, off, size} }
func wr(off, size int64) devIO { return devIO{true, off, size} }

// devUser is one user of a device in TestSubmitMatchesRead: it starts at
// start and then makes each of ios in turn. As a proc it calls Read and
// Write; with cb set, the converted run makes it a callback chain that
// calls Submit.
type devUser struct {
	cb    bool
	start sim.Time
	ios   []devIO
}

// devCase is one schedule of TestSubmitMatchesRead. build makes the device
// under test and lists every device whose stats the case compares.
type devCase struct {
	name  string
	build func(k *sim.Kernel) (Device, []Device)
	users []devUser
	// The all-proc run's completion-trace hash, dispatched events and
	// device stats, recorded when every device model ran in a process.
	trace      string
	dispatched uint64
	stats      string
}

// statsLine renders every counter of each device's stats, with the count,
// sum and maximum of its latency histograms.
func statsLine(devs []Device) string {
	s := ""
	for _, d := range devs {
		st := d.Stats()
		s += fmt.Sprintf("%s r%d w%d br%d bw%d nand%d gc%d rl%d/%d/%d wl%d/%d/%d; ", d.Name(),
			st.Reads.Value(), st.Writes.Value(), st.BytesRead.Value(), st.BytesWritten.Value(),
			st.NANDBytesWritten.Value(), st.GCStalls.Value(),
			st.ReadLat.Count(), st.ReadLat.Sum(), st.ReadLat.Max(),
			st.WriteLat.Count(), st.WriteLat.Sum(), st.WriteLat.Max())
	}
	return s
}

// traceHash condenses a completion trace into a pinnable literal.
func traceHash(trace []string) string {
	h := fnv.New64a()
	fmt.Fprint(h, trace)
	return fmt.Sprintf("%d:%016x", len(trace), h.Sum64())
}

// runDevSchedule runs c's users and returns the (time, user, step, latency)
// trace of completions in execution order and the stats line. With convert
// false every user is a proc, and saved is the number of resumes the
// converted run should not make: for a cb user its start, its initial
// Sleep, and one per request.
func runDevSchedule(c devCase, convert bool) (trace []string, stats string, k *sim.Kernel, saved uint64) {
	k = sim.NewKernel()
	dev, devs := c.build(k)
	note := func(i, s int, lat sim.Time) {
		trace = append(trace, fmt.Sprintf("%v:u%d.%d=%v", k.Now(), i, s, lat))
	}
	for i, u := range c.users {
		i, u := i, u
		if convert && u.cb {
			var io IO
			s := 0
			next := func() {
				if s < len(u.ios) {
					io.Write, io.Off, io.Size = u.ios[s].write, u.ios[s].off, u.ios[s].size
					dev.Submit(&io)
				}
			}
			io.Done = func(any) {
				note(i, s, io.Lat)
				s++
				next()
			}
			k.AfterCall(0, func(any) { k.AfterCall(u.start, func(any) { next() }, nil) }, nil)
			continue
		}
		k.Go("user", func(p *sim.Proc) {
			p.Sleep(u.start)
			for s, io := range u.ios {
				var lat sim.Time
				if io.write {
					lat = dev.Write(p, io.off, io.size)
				} else {
					lat = dev.Read(p, io.off, io.size)
				}
				note(i, s, lat)
			}
			if u.cb {
				saved += 2 + uint64(len(u.ios))
			}
		})
	}
	k.Run(sim.Forever)
	return trace, statsLine(devs), k, saved
}

// faultAll delays every write by 300µs and every multi-page read by half
// its fault-free latency.
type faultAll struct{}

func (faultAll) ReadDelay(base sim.Time, size int64) sim.Time {
	if size > 4096 {
		return base / 2
	}
	return 0
}

func (faultAll) WriteDelay(base sim.Time, size int64) sim.Time { return 300 * sim.Microsecond }

func raidOf(k *sim.Kernel, members int, stripe int64, fault FaultHook) (Device, []Device) {
	r := rng.New(17)
	devs := make([]Device, members)
	for i := range devs {
		devs[i] = NewSSD(k, fmt.Sprintf("m%d", i), DefaultSSDParams(), r)
	}
	raid := NewRAID0(k, "raid", stripe, devs...)
	raid.SetFaultHook(fault)
	return raid, append([]Device{raid}, devs...)
}

// TestSubmitMatchesRead runs each schedule with every user a proc and again
// with some users converted to Submit chains, and requires the same
// completion trace and latencies, the same device stats and dispatched
// events, and exactly the converted users' resumes fewer. Read and Write
// are Submit plus Await, so the proc run is also held to pinned literals.
func TestSubmitMatchesRead(t *testing.T) {
	const K = 1 << 10
	const M = 1 << 20
	us := sim.Microsecond
	cases := []devCase{
		{name: "ssd-contended-channels", build: func(k *sim.Kernel) (Device, []Device) {
			p := DefaultSSDParams()
			p.Channels = 2
			d := NewSSD(k, "ssd", p, rng.New(3))
			return d, []Device{d}
		}, users: []devUser{
			{true, 0, []devIO{rd(0, 4*K), rd(M, 4*K), rd(5*M, 16*K)}},
			{false, 0, []devIO{rd(8*M, 4*K), rd(9*M, 4*K)}},
			{true, 0, []devIO{rd(12*M, 4*K), rd(12*M+4*K, 4*K)}},
			{false, 50 * us, []devIO{rd(20*M, 4*K)}},
			{true, 50 * us, []devIO{rd(30*M, 64*K), rd(40*M, 4*K), rd(40*M+4*K, 128*K)}},
		}, trace: "11:6b34fff08f1ba3b6", dispatched: 42,
			stats: "ssd r11 w0 br245760 bw0 nand0 gc0 rl11/2351409/359697 wl0/0/0; "},
		{name: "ssd-mixed-read-penalty", build: func(k *sim.Kernel) (Device, []Device) {
			d := NewSSD(k, "ssd", DefaultSSDParams(), rng.New(4))
			return d, []Device{d}
		}, users: []devUser{
			{false, 0, []devIO{wr(0, 4*K), wr(M, 4*K), wr(2*M, 4*K)}},
			{true, 0, []devIO{wr(3*M, 32*K), wr(4*M, 4*K)}},
			{true, 10 * us, []devIO{rd(5*M, 4*K), rd(6*M, 4*K), rd(7*M, 4*K)}},
			{false, 20 * us, []devIO{rd(8*M, 4*K), rd(9*M, 4*K)}},
			{true, 30 * us, []devIO{wr(10*M, 4*K), rd(11*M, 4*K), wr(10*M+4*K, 4*K)}},
		}, trace: "13:08a5331699204d5b", dispatched: 43,
			stats: "ssd r6 w7 br24576 bw57344 nand60206 gc0 rl6/1416489/283211 wl7/976566/191153; "},
		{name: "ssd-sustained-gc-stalls", build: func(k *sim.Kernel) (Device, []Device) {
			p := DefaultSSDParams()
			p.GCStallProb = 0.3
			d := NewSSD(k, "ssd", p, rng.New(5))
			d.SetSustained(true)
			return d, []Device{d}
		}, users: []devUser{
			{true, 0, []devIO{wr(0, 4*K), wr(7*M, 4*K), wr(13*M, 32*K), wr(29*M, 4*K), wr(31*M, 8*K)}},
			{false, 0, []devIO{wr(41*M, 4*K), wr(43*M, 4*K), wr(47*M, 256*K), wr(53*M, 4*K)}},
			{true, 5 * us, []devIO{wr(59*M, 4*K), rd(61*M, 4*K), wr(67*M, 16*K), wr(71*M, 4*K)}},
			{false, 5 * us, []devIO{wr(73*M, 4*K), wr(79*M, 4*K), wr(83*M, 4*K)}},
			{true, 1000 * us, []devIO{wr(89*M, 4*K), wr(97*M, 4*K), rd(101*M, 4*K), wr(103*M, 4*K)}},
		}, trace: "20:d855a0db67ffebb8", dispatched: 52,
			stats: "ssd r2 w18 br8192 bw376832 nand573430 gc3 rl2/615357/326287 wl18/18352190/4970872; "},
		{name: "nvram", build: func(k *sim.Kernel) (Device, []Device) {
			p := DefaultNVRAMParams()
			p.Parallelism = 2
			d := NewNVRAM(k, "nvram", p)
			return d, []Device{d}
		}, users: []devUser{
			{true, 0, []devIO{wr(0, 4*K), wr(4*K, 64*K), rd(0, 4*K)}},
			{false, 0, []devIO{wr(M, 4*K), wr(M+4*K, 4*K)}},
			{true, 0, []devIO{rd(2*M, 64*K), wr(2*M, 4*K)}},
			{true, 3 * us, []devIO{wr(3*M, 4*K)}},
			{false, 3 * us, []devIO{rd(4*M, 4*K), rd(4*M, 128*K)}},
		}, trace: "10:6663717e2aeb8953", dispatched: 28,
			stats: "nvram r4 w6 br204800 bw86016 nand86016 gc0 rl4/192604/97645 wl6/173104/58331; "},
		{name: "hdd-queued-elevator", build: func(k *sim.Kernel) (Device, []Device) {
			d := NewHDD(k, "hdd", DefaultHDDParams(), rng.New(6))
			return d, []Device{d}
		}, users: []devUser{
			{true, 0, []devIO{wr(0, 4*K), wr(4*K, 4*K), wr(8*K, 64*K)}},
			{false, 0, []devIO{rd(3000*M, 4*K), wr(7000*M, 4*K)}},
			{true, 0, []devIO{rd(9000*M, 4*K), rd(11000*M, 16*K), wr(500*M, 4*K)}},
			{true, 100 * us, []devIO{wr(13000*M, 4*K), rd(13000*M+4*K, 4*K)}},
			{false, 100 * us, []devIO{rd(15000*M, 4*K), rd(1000*M, 4*K), rd(17000*M, 4*K)}},
			{true, 30000 * us, []devIO{wr(72*K, 4*K), rd(19000*M, 4*K)}},
		}, trace: "15:a06d7bdcfc097fbf", dispatched: 41,
			stats: "hdd r8 w7 br45056 bw90112 nand90112 gc0 rl8/222326565/34168747 wl7/174878944/32210416; "},
		{name: "raid0-one-stripe", build: func(k *sim.Kernel) (Device, []Device) {
			return raidOf(k, 3, 64*K, nil)
		}, users: []devUser{
			{true, 0, []devIO{wr(0, 4*K), rd(64*K, 4*K), wr(128*K, 16*K)}},
			{false, 0, []devIO{wr(4*K, 4*K), rd(192*K, 64*K)}},
			{true, 0, []devIO{rd(60*K, 8*K), wr(M, 4*K), wr(M+4*K, 4*K)}},
			{true, 20 * us, []devIO{wr(2*M, 4*K)}},
		}, trace: "9:83580e0a039ce35e", dispatched: 28,
			stats: "raid r3 w6 br77824 bw36864 nand0 gc0 rl3/567404/263411 wl6/700603/246050; m0 r2 w2 br73728 bw8192 nand8600 gc0 rl2/455964/263411 wl2/290867/246050; m1 r1 w2 br4096 bw8192 nand8600 gc0 rl1/111440/111440 wl2/148792/107507; m2 r0 w2 br0 bw20480 nand21503 gc0 rl0/0/0 wl2/260944/143119; "},
		{name: "raid0-several-stripes", build: func(k *sim.Kernel) (Device, []Device) {
			return raidOf(k, 3, 64*K, nil)
		}, users: []devUser{
			{true, 0, []devIO{wr(0, 256*K), rd(100*K, 200*K)}},
			{false, 0, []devIO{wr(M, 256*K), wr(4*M, 4*K)}},
			{true, 0, []devIO{rd(64*K, 4*K), wr(2*M, M), rd(3*M, 4*K)}},
			{false, 10 * us, []devIO{rd(5*M, 128*K)}},
			{true, 10 * us, []devIO{wr(6*M+32*K, 96*K), wr(7*M, 4*K), rd(6*M, 192*K)}},
		}, trace: "11:2dd5a3de5657def1", dispatched: 98,
			stats: "raid r5 w6 br540672 bw1679360 nand0 gc0 rl5/2579597/1042057 wl6/4349956/1006549; m0 r4 w4 br200704 bw557056 nand584907 gc0 rl4/2055666/1042057 wl4/2164034/894489; m1 r3 w6 br143360 bw598016 nand627913 gc0 rl3/997536/457950 wl6/4210675/1006549; m2 r3 w3 br196608 bw524288 nand550500 gc0 rl3/1626849/1017129 wl3/1355203/869561; "},
		{name: "raid0-fault-hook", build: func(k *sim.Kernel) (Device, []Device) {
			return raidOf(k, 2, 64*K, faultAll{})
		}, users: []devUser{
			{true, 0, []devIO{wr(0, 4*K), rd(0, 4*K), rd(0, 128*K)}},
			{false, 0, []devIO{rd(M, 256*K), wr(2*M, 4*K)}},
			{true, 0, []devIO{wr(3*M, 192*K), rd(3*M+4*K, 8*K)}},
			{true, 40 * us, []devIO{rd(4*M, 4*K), wr(5*M, 64*K)}},
		}, trace: "9:4b15a82743c064a1", dispatched: 53,
			stats: "raid r5 w4 br409600 bw270336 nand0 gc0 rl5/2170191/887512 wl4/2607174/900355; m0 r5 w4 br212992 bw204800 nand215037 gc0 rl5/1638683/591675 wl4/1271957/600355; m1 r2 w1 br196608 bw65536 nand68812 gc0 rl2/537615/310227 wl1/449115/449115; "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantStats, kp, saved := runDevSchedule(tc, false)
			if h := traceHash(want); h != tc.trace || kp.Dispatched() != tc.dispatched || wantStats != tc.stats {
				t.Fatalf("procs: trace %s, dispatched %d, stats %q; want %s, %d, %q\ntrace: %v",
					h, kp.Dispatched(), wantStats, tc.trace, tc.dispatched, tc.stats, want)
			}
			got, gotStats, kc, _ := runDevSchedule(tc, true)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trace differs\nprocs:     %v\ncallbacks: %v", want, got)
			}
			if gotStats != wantStats {
				t.Fatalf("stats differ\nprocs:     %s\ncallbacks: %s", wantStats, gotStats)
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

// TestRAID0StripesSpawnNoProcess checks that a request split over several
// members runs without a process per segment.
func TestRAID0StripesSpawnNoProcess(t *testing.T) {
	k := sim.NewKernel()
	raid, ssds := testRAID(k, 3, 64<<10)
	k.Go("w", func(p *sim.Proc) {
		before := k.Spawned()
		raid.Write(p, 0, 256<<10)
		if n := k.Spawned() - before; n != 0 {
			t.Errorf("a 256 KiB write spawned %d processes", n)
		}
	})
	k.Run(sim.Forever)
	for i, s := range ssds {
		if s.Stats().Writes.Value() != 1 {
			t.Fatalf("member %d got %d writes, want 1", i, s.Stats().Writes.Value())
		}
	}
}
