package ecg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV serialises a record as CSV: a header comment with name and
// sampling rate, then one "index,adc,annotation" row per sample
// (annotation is 1 on ground-truth R peaks). The format round-trips with
// ReadCSV and is convenient for external plotting.
func WriteCSV(w io.Writer, r *Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# record %s fs %d\n", r.Name, r.FS); err != nil {
		return err
	}
	ann := make(map[int]bool, len(r.Annotations))
	for _, a := range r.Annotations {
		ann[a] = true
	}
	for i, s := range r.Samples {
		mark := 0
		if ann[i] {
			mark = 1
		}
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", i, s, mark); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a record previously written by WriteCSV. The input is
// untrusted: exactly one header with a positive sampling rate must come
// before the first sample row, and annotation marks must be 0 or 1. Every
// rejection names the offending line.
func ReadCSV(r io.Reader) (*Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rec := &Record{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rec.FS != 0 {
				return nil, fmt.Errorf("ecg: CSV line %d: second header", line)
			}
			var name string
			var fs int
			if _, err := fmt.Sscanf(text, "# record %s fs %d", &name, &fs); err != nil {
				return nil, fmt.Errorf("ecg: CSV line %d: bad header %q: %w", line, text, err)
			}
			if fs <= 0 {
				return nil, fmt.Errorf("ecg: CSV line %d: sampling rate %d, want > 0", line, fs)
			}
			rec.Name, rec.FS = name, fs
			continue
		}
		if rec.FS == 0 {
			return nil, fmt.Errorf("ecg: CSV line %d: sample row before the header", line)
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("ecg: CSV line %d: want 3 fields, got %d", line, len(parts))
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("ecg: CSV line %d index: %w", line, err)
		}
		if idx != len(rec.Samples) {
			return nil, fmt.Errorf("ecg: CSV line %d: non-contiguous index %d", line, idx)
		}
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("ecg: CSV line %d sample: %w", line, err)
		}
		if v < -32768 || v > 32767 {
			return nil, fmt.Errorf("ecg: CSV line %d sample %d exceeds int16", line, v)
		}
		mark, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("ecg: CSV line %d annotation: %w", line, err)
		}
		if mark != 0 && mark != 1 {
			return nil, fmt.Errorf("ecg: CSV line %d: annotation %d, want 0 or 1", line, mark)
		}
		rec.Samples = append(rec.Samples, int16(v))
		if mark == 1 {
			rec.Annotations = append(rec.Annotations, idx)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rec.FS == 0 {
		return nil, fmt.Errorf("ecg: CSV missing header")
	}
	return rec, nil
}
