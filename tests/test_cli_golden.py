"""Byte-identity gate: every CLI command's stdout on every corpus instance.

The table holds the sha256 of `main(argv)` stdout and the exit code for each
corpus instance under `validate`, `check P --degree 1` for every property,
`ann` on the first nonzero module element, `theorems --degree 1` and the
unknown-property error, plus eight `theorems` runs whose budgets make
reports skip (every skip conclusion text the corpus reaches) and the
`theorems` runs one degree past each frontier at the default budget (every
instance but weyl-dual-quotient, whose frontier is past d=5), and three
runs at the deepest degree without a skip.  A second table, `EXTENDED`,
holds `validate` and `theorems --degree 1` on the instance files under
tests/instances, and `theorems --degree 0` on UT(2,Z2).  The digests
were recorded before the refactors of the verification layers they guard;
such a refactor must leave every one of them unchanged.  Regenerate the
table, with this file's `__main__` block, only for an intended change of
the output contract.
"""

import contextlib
import hashlib
import io
import sys

from spbw.cli import main

from conftest import INSTANCES

# (argv without --json-only, exit code, sha256 of stdout)
GOLDEN = [
    ('quantum-plane-z5 validate', 0,
     '113f82d7610778c37073a00acd1f5d86436d702f6282d73e827a8db8c688815f'),
    ('quantum-plane-z5 check reduced --degree 1', 0,
     'e4d3f25744ed4c9647ee7836530c2b7690c8b218f9f786f0ee30436a2fb98495'),
    ('quantum-plane-z5 check sigma_compatible --degree 1', 0,
     '7c2a1e6ba72376569436423602952f140221f1c80c183c2d20fe3279b0d1f9bd'),
    ('quantum-plane-z5 check delta_compatible --degree 1', 0,
     'c193457e64af182fb7420a002e526489d2cd680a725338c086c5a6f12f72e98b'),
    ('quantum-plane-z5 check abelian --degree 1', 0,
     '1aff99db42163e4698b302eab83f32deae1b66644d318ddaa8fc4f0e4826dd9f'),
    ('quantum-plane-z5 check idempotent_stability --degree 1', 0,
     '34446b2889cff8c2eb45b9ba659aafb37aed37c3834a39dc5e3bd98a8a51a576'),
    ('quantum-plane-z5 check pp --degree 1', 0,
     '2be415650b566a5eb74f9bf3dd3458a21f0e712d3b2c5087f0e34947a00c46b3'),
    ('quantum-plane-z5 check pq_baer --degree 1', 0,
     'a1b74cafc82d3a4e3bf797f731c387fd2458055d46a9f7a77ccfa4fe038bfc0f'),
    ('quantum-plane-z5 check quasi_baer --degree 1', 0,
     '9f9c316997bb9084fa2b3d4e49d696276c9550e00c87f74dfe6d5ade4d31f84c'),
    ('quantum-plane-z5 check baer --degree 1', 0,
     '12bd71c573729f9e536eae513cd5dcaef12580e46b0ba3a15c521820e6b7d9f0'),
    ('quantum-plane-z5 check skew_armendariz --degree 1', 0,
     '0855287a96e94edb7c68d24f24a03148d2f0bf07c22cafb18ebd4591e4ae02ef'),
    ('quantum-plane-z5 check linearly_skew_armendariz --degree 1', 0,
     '76ae41c360007891c415b85f0d7272d8b6707354e2aeefd6390ace309175a10b'),
    ('quantum-plane-z5 check skew_quasi_armendariz --degree 1', 0,
     'fc90f8ce35401211364ea02f9648df583fe66a97e5643c1d34761cb517e86db7'),
    ('quantum-plane-z5 ann 1', 0,
     '00163ab04807ce4d8309d42503a6422a7c7cc328ee1941c116f339bf7b196dd7'),
    ('quantum-plane-z5 theorems --degree 1', 0,
     '88ef5bc43d863345babec7b917f9e81a5e7a765881644204a8b601d0ee94f1dc'),
    ('quantum-plane-z5 check frobenius', 2,
     '4a451c23501bca2daf6e78b2957d4b9b448420547877ff21a4d75069f0ed1a87'),
    ('weyl-dual-quotient validate', 0,
     '767faa6afb2c559e61ea2572c638b4ba325907644d906306f8d6e15ca489d571'),
    ('weyl-dual-quotient check reduced --degree 1', 0,
     'de07938651565f7a345b2366307ff5e565e0041fd223bcb745826f6eb61bad60'),
    ('weyl-dual-quotient check sigma_compatible --degree 1', 0,
     '5704206b35f31238c50da00adbd4e04c5eda4d20c9cc34245dc56aeb6bb090e0'),
    ('weyl-dual-quotient check delta_compatible --degree 1', 1,
     '4ed9265ecb6ff277fc2ddf2ff1400a1e4921993afbf3e077276b18993542f252'),
    ('weyl-dual-quotient check abelian --degree 1', 0,
     'c5d6125e0bba0adc700c6e7754eacfc57d859c190031d38c810ded2fcfbad05a'),
    ('weyl-dual-quotient check idempotent_stability --degree 1', 0,
     'f6b0c6a75d45fbcfaa8b464405201a27eb9afeced9a5530a7780429ddb12f40c'),
    ('weyl-dual-quotient check pp --degree 1', 1,
     'db776634bf63d0291930ff5b7890db8ca72d4167c56347d5638f30fd47e61145'),
    ('weyl-dual-quotient check pq_baer --degree 1', 1,
     'cd5010ccf92831c96d8ec511378aa5d55e018ab4ac3f263daf7aa9b2ce4814be'),
    ('weyl-dual-quotient check quasi_baer --degree 1', 1,
     'af792b0e012d8a2b68eaf7c5cb9bacdf75a935e014904eb254c5ed55547d81c6'),
    ('weyl-dual-quotient check baer --degree 1', 1,
     '0d6240e55098ac4cb2dc75cc3a4b0b2bca052ce8a99b1d232419f8cf9b8660fa'),
    ('weyl-dual-quotient check skew_armendariz --degree 1', 1,
     '4bc62ccfb8fbb1f5bde5554e8120d5fcf08eca478e2ce1fc9b2372d4a1edc22f'),
    ('weyl-dual-quotient check linearly_skew_armendariz --degree 1', 1,
     '61678782c2d4f1252351c875fab451b9a85fde2bcac354fe538220f52c0dfe12'),
    ('weyl-dual-quotient check skew_quasi_armendariz --degree 1', 0,
     '9cefd75b88a280c0a51773bf4daac322dae880cefb69d10807c6d698bcc7f03e'),
    ('weyl-dual-quotient ann [1]', 0,
     '9f35e1f8e4f7207df9a7988b7e83669fd94df98acb552b1f1d734c6cc55837fa'),
    ('weyl-dual-quotient theorems --degree 1', 0,
     'ea394a337ac47632babd1312a46415dc0dfe54090cc6f9bdc1251bc6a5aceefe'),
    ('weyl-dual-quotient check frobenius', 2,
     '4a451c23501bca2daf6e78b2957d4b9b448420547877ff21a4d75069f0ed1a87'),
    ('z2xz2-swap validate', 0,
     '8181785520e99f6aa679e1af97dd50f6b12fa5ea2c1e339050f497456f256154'),
    ('z2xz2-swap check reduced --degree 1', 0,
     '218434272f60614b2298d63122740d21d5cd029d3f823025c4e1ef68bcc59e14'),
    ('z2xz2-swap check sigma_compatible --degree 1', 1,
     '9a8c5d126d8baa429e7186d12f94d052fb02e13f95088c02b40ad69c84f37a2f'),
    ('z2xz2-swap check delta_compatible --degree 1', 0,
     'b99a0402627c883f9e8416c016e12d11c44c6dfc10a52a0826da6a785637c94b'),
    ('z2xz2-swap check abelian --degree 1', 0,
     '8a196e6363cea873465eb3d72408583c87e2b6a0518656140047fe6552a5d501'),
    ('z2xz2-swap check idempotent_stability --degree 1', 1,
     '29d786301d9bde5732d8e820610b9aa40a195cc9692bf5bac3c6fbd1b8285552'),
    ('z2xz2-swap check pp --degree 1', 0,
     '24e8a294aad81bba7cc94b385a399fafb38c36dd7ce14986eabf48e91a4c860c'),
    ('z2xz2-swap check pq_baer --degree 1', 0,
     '4a1c7779f47e7cd78592a8defe47e654395aa3259faac9100437885841757782'),
    ('z2xz2-swap check quasi_baer --degree 1', 0,
     '746ca685f9ae897433a07c1e310e338e085aa86178418391bc3e7cee09f59bdd'),
    ('z2xz2-swap check baer --degree 1', 0,
     'd2d117f58ec934d09552b92684fabefd33102dd191f90a4e9e4752cfd0837bac'),
    ('z2xz2-swap check skew_armendariz --degree 1', 1,
     '412c1ba4ff4606bcf8b2ad9c80e77ef3a5cb367eb7fe45f442dd342f623b6e21'),
    ('z2xz2-swap check linearly_skew_armendariz --degree 1', 1,
     '7705ed1be5cb2cc0bf900e7ec83e5fda200c519b2db6f020798e90d30ac58fec'),
    ('z2xz2-swap check skew_quasi_armendariz --degree 1', 0,
     '2f36ac43e3dff5b21cd10c1eb8d9bdf557c3e08ea63abc054e3f7fd4bfdb6e8e'),
    ('z2xz2-swap ann (0,1)', 0,
     '92981d0a1b65570ed0b1f34466e9b2606f22962d0eb5baede19a16400b92b0de'),
    ('z2xz2-swap theorems --degree 1', 0,
     '8a6dd31bb64e987ce8b82c7c1ca2d20547e14f245af91e69030ad4391ef29b20'),
    ('z2xz2-swap check frobenius', 2,
     '4a451c23501bca2daf6e78b2957d4b9b448420547877ff21a4d75069f0ed1a87'),
    ('z3-trivial validate', 0,
     '4fd9cb74fcf065f53ef162f16263ef1022fddaabad6035079d74e16a241feae7'),
    ('z3-trivial check reduced --degree 1', 0,
     '2be352cf67c67b4b78ef9c7a06719dd3ad82ca2e0a64002ab6e38acd2fb2fd68'),
    ('z3-trivial check sigma_compatible --degree 1', 0,
     '7326a8b725041cb2d7ed7f6ec9e4d1debd3b643e07ca5d8d403486745078ee87'),
    ('z3-trivial check delta_compatible --degree 1', 0,
     'b8d58bf16366b6a8d80c9a8c73fa7fc8964b40494ff5cfdb8e6a11b913e2ba8b'),
    ('z3-trivial check abelian --degree 1', 0,
     '267b25d3236e9d03daddec355060f7864eed6345ba3f1f026ca4e7194b0feeb4'),
    ('z3-trivial check idempotent_stability --degree 1', 0,
     '2d2a9f72da3c87302e698a8da9bb253c16c170afca21b9504e7a74e0a3d2003e'),
    ('z3-trivial check pp --degree 1', 0,
     '876aefc1a24fafc626068e22837072eeb508f3a4e4e8a58d2043e3ff02fc94ff'),
    ('z3-trivial check pq_baer --degree 1', 0,
     'e4b55b7817ed5632d3a9e42d1e5e93b894b685497c184f2d514fccdfdb4beff7'),
    ('z3-trivial check quasi_baer --degree 1', 0,
     '08e1232a6a95791f3b3d25a4e0ea1a471babb5dc6bed368f7043b309ee5d81a3'),
    ('z3-trivial check baer --degree 1', 0,
     'cbaea7355582d5aa296870e59713b110f470a1572b49a37a1facd727a5974d86'),
    ('z3-trivial check skew_armendariz --degree 1', 0,
     '42f8982a83cebf58fe2d0dfdbc7aa49f7b8677cf48962343de6c5f55fe98bbc0'),
    ('z3-trivial check linearly_skew_armendariz --degree 1', 0,
     'ddb5e18664dcb14a29ffca318f0ac7b3ac2cf36ad4eecb59982e3082cfbf35a3'),
    ('z3-trivial check skew_quasi_armendariz --degree 1', 0,
     '4795c5ceb9417dad5b1cdd7079ff0a448ce1a32818663a9eb78a9a92a0fb325d'),
    ('z3-trivial ann 1', 0,
     '88f4d4ab57692bcb5b79ef798e9b11d038b3eef9cff415628373e2ce107a7a56'),
    ('z3-trivial theorems --degree 1', 0,
     'a45828185863c3d9c03fa7b8ac7ee11ab1add4b0cca9686a2aa7d3f7058b3ea0'),
    ('z3-trivial check frobenius', 2,
     '4a451c23501bca2daf6e78b2957d4b9b448420547877ff21a4d75069f0ed1a87'),
    ('z4-regular validate', 0,
     '6ddcc738503759228672a1d7b41fd0d1fcfcba8f4f246ce38805dfa18bdd4a77'),
    ('z4-regular check reduced --degree 1', 1,
     'e45baf10e2493082246efd361b4139b107bb04fbf4eba50032ed089a1393aa02'),
    ('z4-regular check sigma_compatible --degree 1', 0,
     'ee45b81c376c0c088eab7f49e08f1ca1ce6bd19ac26bb6db309e4ab26ee90761'),
    ('z4-regular check delta_compatible --degree 1', 0,
     '61afb77774f1e634f0ffa0000d5230108edf8da3014321843d698bc4059f6d20'),
    ('z4-regular check abelian --degree 1', 0,
     'ada3eb6b1e313f431f5becf3b63ddf6b6cbfc577a569473e67ee2450b79d9897'),
    ('z4-regular check idempotent_stability --degree 1', 0,
     '922213e4b85e1cc5c7503d28825aa8f69c8b8ca26f58a535f29918d4e4cf89e5'),
    ('z4-regular check pp --degree 1', 1,
     '54776616e9791f40f56ebb8aee0872278b28edadb2fd40a53894fa8797b81bb8'),
    ('z4-regular check pq_baer --degree 1', 1,
     '5aaa4f587d065be3510c785599ea243e330803b73d123c77c9cc686696961ca1'),
    ('z4-regular check quasi_baer --degree 1', 1,
     '6e162972ee88833a71b3c555f8f44ddb999d98d7eca0d872a6f9ccebe3a43542'),
    ('z4-regular check baer --degree 1', 1,
     '6b4d9db94750dc043c7d0f4772a7e7b28773b46f15bb99754bc431a8b06befbf'),
    ('z4-regular check skew_armendariz --degree 1', 0,
     '56c8e5f61ab32b9e3881d3e91cef9a3135a300435d563745b8c591d60536c834'),
    ('z4-regular check linearly_skew_armendariz --degree 1', 0,
     'b1951e065934190e437ace8466fd49a89c6c096f6395583d9ccbda50f0931198'),
    ('z4-regular check skew_quasi_armendariz --degree 1', 0,
     '50408cca3f3b5e80f99f5d7a9bcf1955ab46466e17f16531e8647092d84fd4b3'),
    ('z4-regular ann 1', 0,
     'ed30525a56fef014a9e93e2da77364cd4ecc45d4cbe916e31dfc34fb04c59304'),
    ('z4-regular theorems --degree 1', 0,
     '0e869f3b82a28257a79d298a54bfbb6a9b7c2f68f04aebe668947cce9743cd2d'),
    ('z4-regular check frobenius', 2,
     '4a451c23501bca2daf6e78b2957d4b9b448420547877ff21a4d75069f0ed1a87'),
    ('z6-commutative validate', 0,
     'e6afc0b163c1781d238d4f77f431f3486ce6577477bf8cf9597544c99a834036'),
    ('z6-commutative check reduced --degree 1', 0,
     '7e36c60487a3e5c3689e69178a425afabad798fcf04ca55b4d0cfca1643400ea'),
    ('z6-commutative check sigma_compatible --degree 1', 0,
     '67e4df50d44dc457395dfff47c84a7a17c48f0ddbd093a2fd21dcebf7cc413f5'),
    ('z6-commutative check delta_compatible --degree 1', 0,
     'ffcae9662933c865843e414ec50b9fc919fc7f6fd6975be8241cbd68501cca6c'),
    ('z6-commutative check abelian --degree 1', 0,
     '8a3f91f9eb9cbd3fa30db10b19eea5e589d2900d15e19dc1ef0f53cc9ba960c4'),
    ('z6-commutative check idempotent_stability --degree 1', 0,
     '72f8811ce90e1bd015258988a6a4ce87fd620b444fa2af81f9d5bc3b39cd4410'),
    ('z6-commutative check pp --degree 1', 0,
     '5ad8f97359480265be99dbc29146db1db7aa12dc119983f07b165810d1ab9c20'),
    ('z6-commutative check pq_baer --degree 1', 0,
     '9fcd50ffd604261a22c9a996b065175344ceb8366488a091a6415aa4fd4921a8'),
    ('z6-commutative check quasi_baer --degree 1', 0,
     '2c7830a268f2de3270a335c6be445211658148af2ec56d512179a3dfa8b2db37'),
    ('z6-commutative check baer --degree 1', 0,
     '860dcd8b88f32a563232ad888b63e198d474949c20f10d6d713a62213b781275'),
    ('z6-commutative check skew_armendariz --degree 1', 0,
     '9d75cd3375e08b9bd863c457b1c2b5fc373db94d101ba8e70b55ec832c9f0545'),
    ('z6-commutative check linearly_skew_armendariz --degree 1', 0,
     '2e374cedf9c28c94cfb66ebe03e1d1fc4a666dd42cc02a79ebe6f305340663a0'),
    ('z6-commutative check skew_quasi_armendariz --degree 1', 0,
     'b653d41b9e912245888e8a1f3ac674d37b7d2d4ed8fada986975e0738ea075e0'),
    ('z6-commutative ann 1', 0,
     'b066ff0bc849eea98130a66ae7c87c18565f7eb8f400c584c64ecddf4e638134'),
    ('z6-commutative theorems --degree 1', 0,
     '7f8e4012db0de4201a9de7df485d5bd9283c74ce5941a6b9b26f4745cfe1c01b'),
    ('z6-commutative check frobenius', 2,
     '4a451c23501bca2daf6e78b2957d4b9b448420547877ff21a4d75069f0ed1a87'),
    # skipped reports: every skip conclusion text the corpus reaches
    ('quantum-plane-z5 theorems --degree 2 --max-space 100', 0,
     '3513f51089820b87e198cf3234269eedf3498b89b720ea2aadefd4d63d914781'),
    ('weyl-dual-quotient theorems --degree 2 --max-space 100', 0,
     '980613df62e2f7e70ba4847320997844c1c9cfb9de101ac75ff5d39aa2c66075'),
    ('z2xz2-swap theorems --degree 2 --max-space 100', 0,
     '55b971c18b1ddf37ca155540a988f2898db54325fb677d302d26430162f9ddb8'),
    ('z3-trivial theorems --degree 2 --max-space 100', 0,
     '2437661a97d1bbb3967fb3ac0ef0427c0206de9d71033721a9a64111ff30d703'),
    ('z4-regular theorems --degree 2 --max-space 100', 0,
     'a47b8d180b31c91b15aaefad994845026abc32bb6dc40172c50a8a686506789f'),
    ('z6-commutative theorems --degree 2 --max-space 100', 0,
     'e3e5a7fc66e53a2ebe2f9c37c7a369d92adc1d28bb6716cdae959adf6402504b'),
    ('quantum-plane-z5 theorems --degree 2', 0,
     '8dc976b0581a6b752f1ee8193da97320803d127e95b8aa2b1d4142bd8317c274'),
    ('weyl-dual-quotient theorems --degree 1 --max-space 5', 0,
     'e35a1f2eeb765d4e3d5c2d282bc417c2f9faf301cdb2085a59ac855cd17bc02a'),
    # one degree past each frontier; quantum-plane-z5 --degree 2 is above
    ('z6-commutative theorems --degree 2', 0,
     'e44bcac584497dded7092da3338e90d5f4eacb5bf50091af8d488790b8925b8d'),
    ('z3-trivial theorems --degree 3', 0,
     '0f698c766226c9bda5b2b9790d8a6722211807cbcc09d521819a90afb75074d1'),
    ('z4-regular theorems --degree 5', 0,
     '09b8853ffb096c9e8f60cc28efec6d75b03b217fd8a24ea06ecc3714827dbc39'),
    ('z2xz2-swap theorems --degree 5', 0,
     '5a7b4d5c2487bb8359f0d04f3b6a5fa11f8d396b93786d27fdb31f822100b6ea'),
    # at the deepest degree without a skip, where most rows are built
    ('z3-trivial theorems --degree 2', 0,
     '8f2d9a88d07d328881af13b54095b9eba5a419b30c13d42084bad839437ebe4c'),
    ('z4-regular theorems --degree 4', 0,
     '772e9550dff6c9fa047a8a8d8dba038a8291f3feaff581030578f192ff450b87'),
    ('weyl-dual-quotient theorems --degree 5', 0,
     '49341fb82db0db40d12c251a4bf8e0c4fd4998bbcfa3164d7fb1a189308e410a'),
]


# The extended instances, beyond the corpus: U(sl2) and U(osp(1,2)) over Z3 (linear
# relation terms; Lezama & Reyes, Comm. Algebra 42, 2014), UT(2,Z2), and a
# 3-variable bijective Z2xZ2 instance with the swap twist and linear and
# constant relation terms.  Recorded before the rewriting rules were
# restated as one redex function.  UT(2,Z2) at degree 0, where the
# skew-Armendariz hypothesis is vacuous, was recorded when a bound-0 scan
# stopped counting as a met hypothesis (before, it exited 3), and again
# when it stopped counting as a conclusion or an agreement side.
EXTENDED = [
    ('lie-sl2-z3 validate', 0,
     '50fcd30e96f866b2370ee418e15e0497d64678c0af9c093019423945fc1f0ce9'),
    ('lie-sl2-z3 theorems --degree 1', 0,
     '45de0b9329a3ae0e75e457872e50ce0741f52e3d09bc8a99a7a6ee5f115840c9'),
    ('lie-osp12-z3 validate', 0,
     'eb31bfc531b77c9ba1ad4c75a26fc362c38ee4dd6d2673f10b4bf8d37f118f80'),
    ('lie-osp12-z3 theorems --degree 1', 0,
     'a3911be25a16ac8efd248a814528c678d4dd041402f86f5a2a46e0aca23b3318'),
    ('ut2-z2 validate', 0,
     '38294a51ff7a69a6754e546f5ae317b7899106a178696f5a483323ab61ded61a'),
    ('ut2-z2 theorems --degree 1', 0,
     '231d3921459308b994a7409a5c3c5680454d80a7bde6e2937dba6e438b3dcd94'),
    ('ut2-z2 theorems --degree 0', 0,
     'ecd934a79d3420be528fb921029d68756aec6151d747f6e6a3ed371ee977f2b9'),
    ('z2xz2-swap-3var validate', 0,
     '038ecc9e907505980d1e857037ab4ebbf3cdd19bb495c9e37c7e1a4c4f8554b6'),
    ('z2xz2-swap-3var theorems --degree 1', 0,
     '94eb06adfdbdcf359b3d4e35248e37e290dd3ebf656dac32534205d9ac51032e'),
]


def _argv(line: str) -> list:
    """A table entry's argv; its first word names a corpus instance or an
    extended instance file under tests/instances."""
    words = line.split()
    path = INSTANCES / f"{words[0]}.json"
    if path.exists():
        words[0] = str(path)
    return words + ["--json-only"]


def _mismatches(table, capsys) -> list:
    out = []
    for argv, want_code, want_digest in table:
        code = main(_argv(argv))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, digest) != (want_code, want_digest):
            out.append(f"{argv}: exit {code} (want {want_code}), "
                       f"stdout sha256 {digest[:12]} (want {want_digest[:12]})")
    return out


def test_cli_stdout_matches_golden_digests(capsys):
    mismatches = _mismatches(GOLDEN, capsys)
    assert not mismatches, "\n".join(mismatches)


def test_extended_instances_match_golden_digests(capsys):
    mismatches = _mismatches(EXTENDED, capsys)
    assert not mismatches, "\n".join(mismatches)


def _golden_line(argv: str) -> str:
    """Run `argv` the way the tests do and format it as a table entry."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(argv))
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"    ({argv!r}, {code},\n     {digest!r}),"


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli_golden.py 'z3-trivial theorems' ...
    # prints one table entry per argv, for an intended change of a table.
    for arg in sys.argv[1:]:
        print(_golden_line(arg))
