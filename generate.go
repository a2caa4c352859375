package light

import "light/internal/gen"

// The synthetic generators are exported so downstream users (and the
// examples) can produce data graphs without external datasets. All are
// deterministic for a given seed and return degree-ordered graphs.

// GenerateBarabasiAlbert returns a preferential-attachment graph on n
// vertices with k edges per new vertex — a power-law degree distribution
// like social networks.
func GenerateBarabasiAlbert(n, k int, seed int64) *Graph {
	return newGraph(gen.BarabasiAlbert(n, k, seed))
}

// GenerateErdosRenyi returns G(n, m): m uniform random edges on n
// vertices.
func GenerateErdosRenyi(n, m int, seed int64) *Graph {
	return newGraph(gen.ErdosRenyi(n, m, seed))
}

// GenerateRMAT returns an R-MAT graph with 2^scale vertices and about
// edgeFactor·2^scale edges — a skewed, web-like degree distribution.
func GenerateRMAT(scale, edgeFactor int, seed int64) *Graph {
	return newGraph(gen.RMAT(scale, edgeFactor, seed))
}

// GenerateGrid returns the rows×cols 2D grid graph.
func GenerateGrid(rows, cols int) *Graph {
	return newGraph(gen.Grid(rows, cols))
}
