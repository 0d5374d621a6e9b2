//! CSV export for the experiment harness (series for Fig. 1, 2-D points
//! for Fig. 9, result tables for everything else).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use stwa_tensor::Tensor;

/// Write a rank-2 `[rows, cols]` tensor as CSV with the given headers.
pub fn write_matrix_csv(path: &Path, headers: &[&str], data: &Tensor) -> io::Result<()> {
    assert_eq!(data.rank(), 2, "write_matrix_csv expects a matrix");
    assert_eq!(
        headers.len(),
        data.shape()[1],
        "one header per column required"
    );
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{}", headers.join(","))?;
    let cols = data.shape()[1];
    for row in data.data().chunks_exact(cols.max(1)) {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", line.join(","))?;
    }
    w.flush()
}

/// Write generic string records as CSV (experiment result tables).
pub fn write_records_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{}", headers.join(","))?;
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity must match headers");
        assert!(
            row.iter().all(|cell| !cell.contains(',')),
            "a cell holding a comma would shift every later column: {row:?}"
        );
        writeln!(w, "{}", row.join(","))?;
    }
    w.flush()
}

/// Extract one sensor's series as a `[T, 1+F]` matrix of (step, value...)
/// rows, convenient for plotting exports.
pub fn sensor_series_matrix(data: &Tensor, sensor: usize) -> Tensor {
    assert_eq!(data.rank(), 3, "expected [N, T, F]");
    let (t, f) = (data.shape()[1], data.shape()[2]);
    Tensor::from_fn(&[t, 1 + f], |idx| {
        if idx[1] == 0 {
            idx[0] as f32
        } else {
            data.at(&[sensor, idx[0], idx[1] - 1])
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_csv_roundtrip() {
        let dir = std::env::temp_dir().join("stwa_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.csv");
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        write_matrix_csv(&path, &["a", "b"], &m).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "3,4");
    }

    #[test]
    fn records_csv_writes_rows() {
        let dir = std::env::temp_dir().join("stwa_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        write_records_csv(
            &path,
            &["model", "mae"],
            &[vec!["ST-WA".into(), "19.06".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("ST-WA,19.06"));
    }

    #[test]
    fn sensor_series_matrix_layout() {
        let data = Tensor::from_fn(&[2, 3, 1], |i| (i[0] * 100 + i[1]) as f32);
        let m = sensor_series_matrix(&data, 1);
        assert_eq!(m.shape(), &[3, 2]);
        assert_eq!(m.at(&[2, 0]), 2.0); // step index
        assert_eq!(m.at(&[2, 1]), 102.0); // value
    }
}
