package light

import (
	"fmt"

	"light/internal/approx"
)

// approxCount adapts the internal estimator to the public types. The
// estimator walks the raw CSR, so pending edge deltas must be compacted
// first; silently sampling the stale base would bias the estimate.
func approxCount(g *Graph, p *Pattern, samples int, seed int64) (approx.Result, error) {
	st := g.snap()
	if st.view.Overlay() != nil {
		return approx.Result{}, fmt.Errorf("%w: ApproxCount with pending edge deltas; call Compact first", ErrUnsupportedOption)
	}
	return approx.Count(st.view.Base(), st.planStats(), p.p, samples, seed)
}
