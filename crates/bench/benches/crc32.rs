//! CRC32 kernels: the slicing-by-8 `mloc::integrity::crc32` every
//! extent read is checked with, against the bytewise table kernel it
//! replaced, at an index-extent size (4 KiB) and a data-unit size
//! (256 KiB).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mloc::integrity::crc32;
use std::hint::black_box;

/// The bytewise kernel, one table lookup per input byte.
fn crc32_bytewise(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for size in [4usize << 10, 256 << 10] {
        let data: Vec<u8> = (0..size).map(|i| (i * 131 + 17) as u8).collect();
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        g.throughput(Throughput::Bytes(size as u64));
        let kib = format!("{}KiB", size >> 10);
        g.bench_with_input(BenchmarkId::new("slicing_by_8", &kib), &data, |b, d| {
            b.iter(|| black_box(crc32(black_box(d))))
        });
        g.bench_with_input(BenchmarkId::new("bytewise", &kib), &data, |b, d| {
            b.iter(|| black_box(crc32_bytewise(black_box(d))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_crc32);
criterion_main!(benches);
