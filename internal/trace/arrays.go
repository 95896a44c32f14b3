package trace

import (
	"fmt"

	"tlbmap/internal/vm"
)

// F64 is a traced one-dimensional float64 array living in the simulated
// address space. Every Get/Set both performs the real Go operation (so
// kernels compute real values) and emits the corresponding simulated memory
// access on the calling thread.
type F64 struct {
	base vm.Addr
	data []float64
}

// NewF64 allocates a traced float64 array of length n on fresh pages, so
// distinct arrays never share a page (no cross-array false communication).
func NewF64(as *vm.AddressSpace, n int) *F64 {
	return &F64{base: as.AllocPageAligned(int64(n) * 8), data: make([]float64, n)}
}

// Len returns the array length.
func (a *F64) Len() int { return len(a.data) }

// Addr returns the simulated virtual address of element i.
func (a *F64) Addr(i int) vm.Addr { return a.base + vm.Addr(i*8) }

// Get loads element i on thread t.
func (a *F64) Get(t *Thread, i int) float64 {
	t.Load(a.Addr(i))
	return a.data[i]
}

// Set stores v into element i on thread t.
func (a *F64) Set(t *Thread, i int, v float64) {
	t.Store(a.Addr(i))
	a.data[i] = v
}

// Add accumulates v into element i on thread t (a load plus a store, the
// read-modify-write at the heart of reduction and stencil updates).
func (a *F64) Add(t *Thread, i int, v float64) {
	t.Load(a.Addr(i))
	t.Store(a.Addr(i))
	a.data[i] += v
}

// Poke writes element i without tracing (initialization only).
func (a *F64) Poke(i int, v float64) { a.data[i] = v }

// I64 is a traced one-dimensional int64 array in the simulated address
// space (key arrays and bucket counters of the IS kernel).
type I64 struct {
	base vm.Addr
	data []int64
}

// NewI64 allocates a traced int64 array of length n on fresh pages.
func NewI64(as *vm.AddressSpace, n int) *I64 {
	return &I64{base: as.AllocPageAligned(int64(n) * 8), data: make([]int64, n)}
}

// Addr returns the simulated virtual address of element i.
func (a *I64) Addr(i int) vm.Addr { return a.base + vm.Addr(i*8) }

// Get loads element i on thread t.
func (a *I64) Get(t *Thread, i int) int64 {
	t.Load(a.Addr(i))
	return a.data[i]
}

// Set stores v into element i on thread t.
func (a *I64) Set(t *Thread, i int, v int64) {
	t.Store(a.Addr(i))
	a.data[i] = v
}

// Add accumulates v into element i on thread t.
func (a *I64) Add(t *Thread, i int, v int64) {
	t.Load(a.Addr(i))
	t.Store(a.Addr(i))
	a.data[i] += v
}

// Poke writes element i without tracing.
func (a *I64) Poke(i int, v int64) { a.data[i] = v }

// Grid3 is a traced three-dimensional float64 grid stored in z-major order
// (z slowest, x fastest), the layout of the NPB structured-grid kernels.
// Slicing the z axis across threads gives the 1-D domain decomposition
// whose neighbour communication dominates BT, LU, MG, SP and UA.
type Grid3 struct {
	arr        *F64
	Nz, Ny, Nx int
}

// NewGrid3 allocates a traced nz x ny x nx grid on fresh pages.
func NewGrid3(as *vm.AddressSpace, nz, ny, nx int) *Grid3 {
	if nz <= 0 || ny <= 0 || nx <= 0 {
		panic(fmt.Sprintf("trace: invalid grid %dx%dx%d", nz, ny, nx))
	}
	return &Grid3{arr: NewF64(as, nz*ny*nx), Nz: nz, Ny: ny, Nx: nx}
}

// Index returns the flat index of (z, y, x).
func (g *Grid3) Index(z, y, x int) int { return (z*g.Ny+y)*g.Nx + x }

// Get loads element (z, y, x) on thread t.
func (g *Grid3) Get(t *Thread, z, y, x int) float64 { return g.arr.Get(t, g.Index(z, y, x)) }

// Set stores v into element (z, y, x) on thread t.
func (g *Grid3) Set(t *Thread, z, y, x int, v float64) { g.arr.Set(t, g.Index(z, y, x), v) }

// Add accumulates v into element (z, y, x) on thread t.
func (g *Grid3) Add(t *Thread, z, y, x int, v float64) { g.arr.Add(t, g.Index(z, y, x), v) }

// Poke writes element (z, y, x) without tracing.
func (g *Grid3) Poke(z, y, x int, v float64) { g.arr.Poke(g.Index(z, y, x), v) }

// Matrix2 is a traced two-dimensional float64 matrix in row-major order
// (the FT transpose buffers and CG working matrices).
type Matrix2 struct {
	arr        *F64
	Rows, Cols int
}

// NewMatrix2 allocates a traced rows x cols matrix on fresh pages.
func NewMatrix2(as *vm.AddressSpace, rows, cols int) *Matrix2 {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("trace: invalid matrix %dx%d", rows, cols))
	}
	return &Matrix2{arr: NewF64(as, rows*cols), Rows: rows, Cols: cols}
}

// Index returns the flat index of (r, c).
func (m *Matrix2) Index(r, c int) int { return r*m.Cols + c }

// Get loads element (r, c) on thread t.
func (m *Matrix2) Get(t *Thread, r, c int) float64 { return m.arr.Get(t, m.Index(r, c)) }

// Set stores v into element (r, c) on thread t.
func (m *Matrix2) Set(t *Thread, r, c int, v float64) { m.arr.Set(t, m.Index(r, c), v) }

// Poke writes element (r, c) without tracing.
func (m *Matrix2) Poke(r, c int, v float64) { m.arr.Poke(m.Index(r, c), v) }
