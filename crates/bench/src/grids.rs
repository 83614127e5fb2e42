//! The paper's model/batch evaluation grids.

use deepum_torch::models::ModelKind;

/// The Fig. 9 / Tables 3-5 grid: seven models on the V100 32 GB
/// (paper Section 6.2), each with the batch sizes the paper evaluates.
pub const FIG9_GRID: &[(ModelKind, &[usize])] = &[
    (ModelKind::Gpt2Xl, &[3, 5, 7]),
    (ModelKind::Gpt2L, &[3, 5, 7]),
    (ModelKind::BertLarge, &[14, 16, 18]),
    (ModelKind::BertBase, &[29, 30, 31]),
    (
        ModelKind::Dlrm,
        &[96_000, 128_000, 160_000, 192_000, 224_000],
    ),
    (ModelKind::ResNet152, &[1280, 1536, 1792]),
    (ModelKind::ResNet200, &[1024, 1280, 1536]),
];

/// The Section 6.4 grid: four models on the V100 16 GB, compared against
/// the TensorFlow-based systems (Fig. 13 / Table 7). Batches chosen near
/// the TF systems' operating points.
pub const FIG13_GRID: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet200Cifar, 3072),
    (ModelKind::BertLargeCola, 384),
    (ModelKind::Dcgan, 8192),
    (ModelKind::MobileNet, 20480),
];

/// Middle-of-grid batch per model, used by the sensitivity experiments
/// (Figs. 10-12) to keep runs representative without sweeping the full
/// grid.
pub fn middle_batch(model: ModelKind) -> usize {
    FIG9_GRID
        .iter()
        .find(|(m, _)| *m == model)
        .map(|(_, batches)| batches[batches.len() / 2])
        .unwrap_or(8)
}

/// All (model, batch) cells of the Fig. 9 grid, in grid order.
pub fn fig9_cells() -> Vec<(ModelKind, usize)> {
    FIG9_GRID
        .iter()
        .flat_map(|&(model, batches)| batches.iter().map(move |&b| (model, b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper_shape() {
        assert_eq!(FIG9_GRID.len(), 7);
        let cells: usize = FIG9_GRID.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(cells, 4 * 3 + 5 + 2 * 3); // 23 model/batch points
        assert_eq!(FIG13_GRID.len(), 4);
    }

    #[test]
    fn middle_batches() {
        assert_eq!(middle_batch(ModelKind::Gpt2Xl), 5);
        assert_eq!(middle_batch(ModelKind::Dlrm), 160_000);
    }

    #[test]
    fn cells_follow_grid_order() {
        let cells = fig9_cells();
        assert_eq!(cells.len(), 23);
        assert_eq!(cells[0], (ModelKind::Gpt2Xl, 3));
        assert_eq!(cells[22], (ModelKind::ResNet200, 1536));
    }
}
