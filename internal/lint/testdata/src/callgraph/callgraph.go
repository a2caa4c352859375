// Package cg exercises the call-graph builder: static calls, method
// values, function references, dynamic calls, and direct and mutual
// recursion. The callgraph tests assert exact edges over this package;
// it must stay finding-free for every analyzer.
package cg

// Square has a value method.
type Square struct {
	// N is the side length.
	N int
}

// Area returns N squared.
func (s Square) Area() int { return s.N * s.N }

// Pick returns a bound method value without calling it.
func Pick(s Square) func() int {
	return s.Area
}

// Apply invokes a function value (dynamic: no edge to double from
// here).
func Apply(f func(int) int, v int) int {
	return f(v)
}

// Use passes a top-level function reference into Apply.
func Use(v int) int {
	return Apply(double, v)
}

func double(v int) int { return v + v }

// Fact is directly recursive.
func Fact(n int) int {
	if n <= 1 {
		return 1
	}
	return n * Fact(n-1)
}

// IsEven is mutually recursive with isOdd.
func IsEven(n int) bool {
	if n == 0 {
		return true
	}
	return isOdd(n - 1)
}

func isOdd(n int) bool {
	if n == 0 {
		return false
	}
	return IsEven(n - 1)
}
