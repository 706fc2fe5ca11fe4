-- f: multicycle custom-instruction datapath (opcode 0).
-- Interface: start latches the first operand pair; further pairs stream
-- on consecutive enabled cycles; done pulses for one enabled cycle when
-- the result is valid.

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
library lpm;
use lpm.lpm_components.all;

entity f is
  port (
    clk : in std_logic;
    clk_en : in std_logic;
    reset : in std_logic;
    start : in std_logic;
    dataa : in std_logic_vector(31 downto 0);
    datab : in std_logic_vector(31 downto 0);
    done : out std_logic;
    result : out std_logic_vector(31 downto 0)
  );
end entity f;

architecture rtl of f is

  component lpm_add_sub
    generic (
      LPM_WIDTH : natural;
      LPM_DIRECTION : string
    );
    port (
      dataa : in std_logic_vector(LPM_WIDTH - 1 downto 0);
      datab : in std_logic_vector(LPM_WIDTH - 1 downto 0);
      result : out std_logic_vector(LPM_WIDTH - 1 downto 0)
    );
  end component;

  component lpm_mult
    generic (
      LPM_WIDTHA : natural;
      LPM_WIDTHB : natural;
      LPM_WIDTHP : natural;
      LPM_REPRESENTATION : string
    );
    port (
      dataa : in std_logic_vector(LPM_WIDTHA - 1 downto 0);
      datab : in std_logic_vector(LPM_WIDTHB - 1 downto 0);
      result : out std_logic_vector(LPM_WIDTHP - 1 downto 0)
    );
  end component;

  signal cnt : integer range 0 to 3;
  signal r_a : std_logic_vector(31 downto 0);
  signal r_b : std_logic_vector(31 downto 0);
  signal r_c : std_logic_vector(31 downto 0);
  signal w_1_p : std_logic_vector(31 downto 0);
  signal s_1 : std_logic_vector(31 downto 0);
  signal w_3 : std_logic_vector(31 downto 0);

begin

  u_mul_0 : lpm_mult
    generic map (
      LPM_WIDTHA => 32,
      LPM_WIDTHB => 32,
      LPM_WIDTHP => 32,
      LPM_REPRESENTATION => "SIGNED"
    )
    port map (
      dataa => r_a,
      datab => r_b,
      result => w_1_p
    );

  u_add_1 : lpm_add_sub
    generic map (
      LPM_WIDTH => 32,
      LPM_DIRECTION => "ADD"
    )
    port map (
      dataa => s_1,
      datab => r_c,
      result => w_3
    );

  result <= w_3;

  control : process (clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        cnt <= 0;
        done <= '0';
        r_a <= (others => '0');
        r_b <= (others => '0');
        r_c <= (others => '0');
        s_1 <= (others => '0');
      elsif clk_en = '1' then
        done <= '0';
        if cnt = 0 then
          if start = '1' then
            r_a <= dataa;
            r_b <= datab;
            cnt <= 1;
          end if;
        elsif cnt = 1 then
          r_c <= dataa;
          cnt <= 2;
        elsif cnt = 2 then
          s_1 <= w_1_p;
          done <= '1';
          cnt <= 3;
        elsif cnt = 3 then
          cnt <= 0;
        end if;
      end if;
    end if;
  end process control;

end architecture rtl;
