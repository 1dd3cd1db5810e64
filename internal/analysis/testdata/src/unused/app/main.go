// Command app is an afvet fixture for the unused analyzer: each function
// below is referenced, or not, in one of the ways the analyzer must tell
// apart. main and init are the roots.
package main

import "fmt"

func main() {
	var t T
	schedule(t.step)
	schedule(callback)
	fmt.Println(total([]shape{square{2}, rect{2, 3}}), name("n"), fault{}, handlers)
}

func init() {}

func dead() {} // want `^dead is referenced by no non-test code`

// T carries the method cases.
type T struct{}

func (t *T) deadMethod() {} // want `^\(\*T\)\.deadMethod is referenced by no non-test code`

// recurse references only itself.
func recurse(n int) int { // want `^recurse is referenced by no non-test code`
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// step is taken as a method value and callback as a func value; neither
// is ever called directly.
func (t *T) step(any) {}

func callback(any) {}

func schedule(fn func(any)) { fn(nil) }

// registered is referenced only by a package-level variable initializer.
func registered() {}

var handlers = map[string]func(){"r": registered}

// shape is called through an interface: both implementations stay.
type shape interface{ area() int }

type square struct{ s int }

func (q square) area() int { return q.s * q.s }

type rect struct{ w, h int }

func (r rect) area() int { return r.w * r.h }

func total(shapes []shape) int {
	n := 0
	for _, s := range shapes {
		n += s.area()
	}
	return n
}

// name and fault satisfy fmt.Stringer and error, which only fmt calls.
type name string

func (n name) String() string { return string(n) }

type fault struct{}

func (fault) Error() string { return "fault" }

func kept() {} //afvet:allow unused a test in another package calls it
