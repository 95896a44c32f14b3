package comm

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// matrixJSON is the stable on-disk form of a communication matrix.
type matrixJSON struct {
	N     int        `json:"n"`
	Cells [][]uint64 `json:"cells"`
}

// MarshalJSON encodes the matrix as {"n": N, "cells": [[...], ...]}.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	out := matrixJSON{N: m.n, Cells: make([][]uint64, m.n)}
	for i := 0; i < m.n; i++ {
		out.Cells[i] = make([]uint64, m.n)
		for j := 0; j < m.n; j++ {
			out.Cells[i][j] = m.At(i, j)
		}
	}
	return json.Marshal(out)
}

// WriteCSV writes the matrix as N rows of N comma-separated counts.
func (m *Matrix) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	row := make([]string, m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			row[j] = strconv.FormatUint(m.At(i, j), 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
