package comm

import (
	"encoding/binary"
	"fmt"
)

// Binary codec for matrices: the durability layer snapshots per-tenant
// communication matrices into checkpoint blobs, so the encoding must be
// deterministic (equal matrices encode to equal bytes).
//
// Layout (all little-endian):
//
//	u32 n
//	u8  flags (written 0, ignored on decode)
//	u32 row budget (written 0, must be 0 on decode)
//	u64 nnz (non-zero upper-triangle cells)
//	nnz × (u32 i, u32 j, u64 w)   in ascending (i, j) — ForEach order
//
// The flags byte and the budget are what remains of a retired hashed-row
// representation and its accumulate-time row budget; keeping them keeps
// older snapshots decodable. Only the upper triangle is stored.

// matrixHeaderBytes is the fixed header: n, flags, budget, nnz.
const matrixHeaderBytes = 4 + 1 + 4 + 8

// AppendBinary appends the matrix's deterministic binary encoding to buf
// and returns the extended slice.
func (m *Matrix) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.n))
	buf = append(buf, 0)                           // flags
	buf = binary.LittleEndian.AppendUint32(buf, 0) // row budget
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.NNZ()))
	m.ForEach(func(i, j int, w uint64) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
		buf = binary.LittleEndian.AppendUint64(buf, w)
	})
	return buf
}

// DecodeMatrix decodes a matrix for n threads encoded by AppendBinary from
// the front of data, returning the matrix and the remaining bytes. A
// header for any other thread count is rejected before anything is
// allocated: the matrix costs n²·8 bytes, so a damaged or hostile header
// must not choose n. Every structural violation — short buffer,
// out-of-range indices, non-ascending cells — is an error, never a
// panic: snapshot blobs are checksummed upstream, but the decoder still
// refuses to build an invalid matrix from a valid-CRC encoding of one.
func DecodeMatrix(data []byte, n int) (*Matrix, []byte, error) {
	if len(data) < matrixHeaderBytes {
		return nil, nil, fmt.Errorf("comm: matrix decode: short header (%d bytes)", len(data))
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("comm: matrix decode: invalid thread count %d", n)
	}
	if got := binary.LittleEndian.Uint32(data[0:4]); uint64(got) != uint64(n) {
		return nil, nil, fmt.Errorf("comm: matrix decode: matrix for %d threads, want %d", got, n)
	}
	if budget := binary.LittleEndian.Uint32(data[5:9]); budget != 0 {
		return nil, nil, fmt.Errorf("comm: matrix decode: unsupported row budget %d", budget)
	}
	nnz := binary.LittleEndian.Uint64(data[9:17])
	data = data[matrixHeaderBytes:]
	if nnz > uint64(n)*uint64(n-1)/2 {
		return nil, nil, fmt.Errorf("comm: matrix decode: nnz %d exceeds the %d-thread upper triangle", nnz, n)
	}
	if nnz > uint64(len(data)/16) {
		return nil, nil, fmt.Errorf("comm: matrix decode: %d cells truncated to %d bytes", nnz, len(data))
	}
	m := NewMatrix(n)
	prevI, prevJ := -1, -1
	for k := uint64(0); k < nnz; k++ {
		i := int(binary.LittleEndian.Uint32(data[0:4]))
		j := int(binary.LittleEndian.Uint32(data[4:8]))
		w := binary.LittleEndian.Uint64(data[8:16])
		data = data[16:]
		if i < 0 || j <= i || j >= n {
			return nil, nil, fmt.Errorf("comm: matrix decode: cell (%d, %d) outside upper triangle of %d", i, j, n)
		}
		if i < prevI || (i == prevI && j <= prevJ) {
			return nil, nil, fmt.Errorf("comm: matrix decode: cell (%d, %d) out of order after (%d, %d)", i, j, prevI, prevJ)
		}
		if w == 0 {
			return nil, nil, fmt.Errorf("comm: matrix decode: explicit zero cell (%d, %d)", i, j)
		}
		prevI, prevJ = i, j
		m.Set(i, j, w)
	}
	return m, data, nil
}

// AppendOptionalMatrix encodes a possibly-nil matrix: one presence byte,
// then the encoding.
func AppendOptionalMatrix(buf []byte, m *Matrix) []byte {
	if m == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return m.AppendBinary(buf)
}

// DecodeOptionalMatrix decodes what AppendOptionalMatrix wrote; a present
// matrix must be for n threads, as in DecodeMatrix.
func DecodeOptionalMatrix(data []byte, n int) (*Matrix, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("comm: optional matrix decode: empty buffer")
	}
	present, data := data[0], data[1:]
	switch present {
	case 0:
		return nil, data, nil
	case 1:
		return DecodeMatrix(data, n)
	default:
		return nil, nil, fmt.Errorf("comm: optional matrix decode: bad presence byte %d", present)
	}
}
